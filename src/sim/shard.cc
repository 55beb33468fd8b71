#include "sim/shard.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "sim/mem_accounting.h"

namespace vpp::sim {

namespace {

/**
 * Identifies the shard whose events are currently executing on this
 * thread, so post() can stamp the source without an explicit
 * argument. Owner pointer disambiguates nested engines.
 */
thread_local const ShardedSimulation *tlsOwner = nullptr;
thread_local unsigned tlsShard = 0;

struct ShardContext
{
    ShardContext(const ShardedSimulation *owner, unsigned s)
    {
        tlsOwner = owner;
        tlsShard = s;
    }

    ~ShardContext()
    {
        tlsOwner = nullptr;
        tlsShard = 0;
    }
};

} // namespace

void
ShardedSimulation::EpochBarrier::cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
}

void
ShardedSimulation::EpochBarrier::release(bool sense)
{
    // The sense flip is published under the lock so a waiter that
    // just decided to block cannot miss the notify.
    {
        std::lock_guard<std::mutex> lk(mu_);
        sense_.store(sense, std::memory_order_release);
    }
    cv_.notify_all();
}

void
ShardedSimulation::EpochBarrier::blockUntil(bool sense)
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this, sense] {
        return sense_.load(std::memory_order_acquire) == sense;
    });
}

unsigned
ShardedSimulation::defaultWorkers()
{
    if (const char *env = std::getenv("VPP_SHARDS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return static_cast<unsigned>(v);
    }
    return 1;
}

ShardedSimulation::ShardedSimulation(unsigned shards,
                                     Duration lookahead,
                                     unsigned workers)
    : lookahead_(lookahead)
{
    if (shards == 0)
        throw SimPanic("ShardedSimulation needs at least one shard");
    if (lookahead <= 0)
        throw SimPanic("ShardedSimulation lookahead must be > 0");
    if (workers == 0)
        workers = defaultWorkers();
    if (workers > shards) {
        // Extra workers would only sit at the barrier: each shard is
        // drained by exactly one worker per window. Clamp, but say so
        // on stderr (the diffed stdout/JSON stay byte-identical) —
        // a silently ignored --shards is a confusing way to discover
        // the scenario's shard count is the real parallelism cap.
        std::fprintf(stderr,
                     "ShardedSimulation: clamping %u workers to the "
                     "%u-shard scenario (extra workers would idle)\n",
                     workers, shards);
        ++clamped_;
    }
    workers_ = std::min(workers, shards);
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    mail_.resize(static_cast<std::size_t>(shards) * shards);
    shardMin_.assign(shards, Simulation::kNoEvent);
    shardErrors_.assign(shards, nullptr);
}

ShardedSimulation::~ShardedSimulation() = default;

void
ShardedSimulation::postErased(unsigned dst, SimTime when, Call fn)
{
    if (dst >= shards_.size())
        throw SimPanic("post() to unknown shard");
    if (!running_) {
        // Setup is single-threaded; schedule straight onto the
        // destination, deterministically in program order.
        shards_[dst]->sim.schedule(when, std::move(fn));
        return;
    }
    if (tlsOwner != this)
        throw SimPanic("post() during run() from outside any shard");
    const unsigned src = tlsShard;
    if (dst == src) {
        shards_[src]->sim.schedule(when, std::move(fn));
        return;
    }
    Shard &from = *shards_[src];
    // The conservative window is only sound if every cross-shard
    // effect lags its cause by at least the declared lookahead.
    if (when < from.sim.now() + lookahead_)
        throw SimPanic("cross-shard post inside the lookahead window");
    std::vector<Mail> &box =
        mail_[static_cast<std::size_t>(src) * shards_.size() + dst];
    if (box.empty())
        from.postedTo.push_back(dst);
    box.push_back(Mail{when, src, from.outSeq++, std::move(fn)});
    ++from.posted;
}

void
ShardedSimulation::mergeShard(unsigned s)
{
    Shard &sh = *shards_[s];
    const std::size_t n = shards_.size();
    if (sh.dead) {
        // Mail to a dead shard never runs; drop it now, so its
        // callables are destroyed and its mailboxes emptied.
        for (std::uint32_t src : sh.mailFrom)
            mail_[src * n + s].clear();
        sh.mailFrom.clear();
        shardMin_[s] = Simulation::kNoEvent;
        return;
    }
    sh.inbox.clear();
    for (std::uint32_t src : sh.mailFrom) {
        std::vector<Mail> &box = mail_[src * n + s];
        for (Mail &m : box)
            sh.inbox.push_back(std::move(m));
        box.clear();
    }
    sh.mailFrom.clear();
    if (!sh.inbox.empty()) {
        // Canonical cross-shard order: (timestamp, source shard,
        // source sequence). Scheduling in this order assigns the
        // destination's sequence numbers deterministically, so the
        // merged stream interleaves with local events identically at
        // any worker count.
        std::sort(sh.inbox.begin(), sh.inbox.end(),
                  [](const Mail &a, const Mail &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.src != b.src)
                          return a.src < b.src;
                      return a.seq < b.seq;
                  });
        try {
            for (Mail &m : sh.inbox)
                sh.sim.schedule(m.when, std::move(m.fn));
        } catch (...) {
            shardErrors_[s] = std::current_exception();
            sh.dead = true;
            errorCount_.fetch_add(1, std::memory_order_relaxed);
            shardMin_[s] = Simulation::kNoEvent;
            sh.inbox.clear();
            return;
        }
    }
    sh.inbox.clear();
    shardMin_[s] = sh.sim.nextEventTime();
}

void
ShardedSimulation::drainShard(unsigned s)
{
    Shard &sh = *shards_[s];
    if (sh.dead || (shardMin_[s] >= horizon_ && !firstWindow_))
        return;
    ShardContext ctx(this, s);
    try {
        sh.sim.drainBefore(horizon_);
    } catch (...) {
        shardErrors_[s] = std::current_exception();
        sh.dead = true;
        errorCount_.fetch_add(1, std::memory_order_relaxed);
    }
}

/** Barrier-A completion: single-threaded between epochs. */
void
ShardedSimulation::computeHorizon()
{
    SimTime gm = Simulation::kNoEvent;
    for (SimTime t : shardMin_)
        gm = std::min(gm, t);
    if (gm == Simulation::kNoEvent ||
        errorCount_.load(std::memory_order_relaxed) != 0) {
        done_ = true;
        return;
    }
    horizon_ = gm > Simulation::kNoEvent - lookahead_
                   ? Simulation::kNoEvent
                   : gm + lookahead_;
    ++epochs_;
    // Single-threaded by construction (we are the barrier-A
    // completion): shared state published here is visible to every
    // shard's window via the barrier's release, and the publish point
    // is a pure function of the epoch sequence — identical at any
    // worker count.
    if (epochHook_)
        epochHook_();
}

/**
 * Barrier-B completion: single-threaded between a window's drains and
 * the next merge. Routes each source's posted-to list into the
 * destinations' source lists; ascending source order makes every list
 * identical at any worker count.
 */
void
ShardedSimulation::routeMail()
{
    const auto n = static_cast<std::uint32_t>(shards_.size());
    for (std::uint32_t src = 0; src < n; ++src) {
        Shard &from = *shards_[src];
        for (std::uint32_t dst : from.postedTo)
            shards_[dst]->mailFrom.push_back(src);
        from.postedTo.clear();
    }
}

void
ShardedSimulation::workerLoop(unsigned w, unsigned stride)
{
    const unsigned n = static_cast<unsigned>(shards_.size());
    bool senseA = false;
    bool senseB = false;
    for (;;) {
        // Phase A: fold last window's mail into the owned shards and
        // report their next-event times; the barrier completion then
        // proves the next window safe (or declares the run done).
        for (unsigned s = w; s < n; s += stride)
            mergeShard(s);
        barrierA_->arriveAndWait(senseA,
                                 [this] { computeHorizon(); });
        if (done_)
            return;
        // Phase B: every owned shard drains strictly below the
        // horizon; cross-shard effects park in mailboxes. The second
        // barrier routes them to next epoch's merge.
        for (unsigned s = w; s < n; s += stride)
            drainShard(s);
        barrierB_->arriveAndWait(senseB, [this] {
            routeMail();
            firstWindow_ = false;
        });
    }
}

SimTime
ShardedSimulation::run()
{
    if (running_)
        throw SimPanic("ShardedSimulation::run() re-entered");
    running_ = true;
    done_ = false;
    firstWindow_ = true;
    const unsigned w = workers_;

    const bool spin = w <= std::thread::hardware_concurrency();
    barrierA_ = std::make_unique<EpochBarrier>(w, spin);
    barrierB_ = std::make_unique<EpochBarrier>(w, spin);
    if (w <= 1) {
        // Single worker: same epoch loop inline; a one-party barrier
        // is always "last to arrive" and never blocks.
        workerLoop(0, 1);
    } else {
        std::vector<std::int64_t> workerPeak(w, 0);
        std::vector<std::thread> threads;
        threads.reserve(w - 1);
        for (unsigned i = 1; i < w; ++i) {
            threads.emplace_back([this, i, w, &workerPeak] {
                // Track this worker's heap high-water mark so the
                // run's reported peak covers shard workers, not just
                // the submitting thread (mem_accounting.h).
                std::int64_t base = mem::threadCurrentBytes();
                mem::resetThreadPeak();
                workerLoop(i, w);
                workerPeak[i] = mem::threadPeakBytes() - base;
            });
        }
        workerLoop(0, w);
        for (std::thread &t : threads)
            t.join();
        if (mem::hooksActive()) {
            std::int64_t sum = 0;
            for (std::int64_t p : workerPeak)
                sum += std::max<std::int64_t>(p, 0);
            mem::absorbChildPeak(sum);
        }
    }
    barrierA_.reset();
    barrierB_.reset();

    running_ = false;
    // Rethrow deterministically: the lowest-indexed failed shard
    // wins. Failed shards stay dead (their queues are swept by the
    // Simulation destructor); the engine itself remains runnable.
    std::exception_ptr first;
    for (std::size_t s = 0; s < shardErrors_.size(); ++s) {
        if (shardErrors_[s]) {
            if (!first)
                first = shardErrors_[s];
            shardErrors_[s] = nullptr;
        }
    }
    errorCount_.store(0, std::memory_order_relaxed);
    if (first)
        std::rethrow_exception(first);
    return now();
}

std::uint64_t
ShardedSimulation::crossEvents() const
{
    std::uint64_t total = 0;
    for (const auto &sh : shards_)
        total += sh->posted;
    return total;
}

SimTime
ShardedSimulation::now() const
{
    SimTime t = 0;
    for (const auto &sh : shards_)
        t = std::max(t, sh->sim.now());
    return t;
}

} // namespace vpp::sim
