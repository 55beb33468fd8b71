/**
 * @file
 * Sharded discrete-event engine: deterministic intra-run parallelism.
 *
 * A ShardedSimulation partitions one simulated system into N logical
 * shards, each a complete Simulation with its own clock, event queue
 * and sequence counter. Shards advance together in conservative
 * epochs: every epoch computes the global minimum next-event time
 * `gm` across all shards and proves the window [gm, gm + lookahead)
 * safe — `lookahead` is the minimum cross-shard communication
 * latency, so no event executed in the window can cause an effect on
 * another shard before the window's end (the horizon). Each shard
 * then drains its own queue strictly below the horizon, cross-shard
 * events are exchanged, and the next epoch begins.
 *
 * Cross-shard events travel through per-(src,dst) mailboxes. During
 * a window each mailbox has exactly one writer (the worker draining
 * the source shard); it is read only in the next epoch's merge
 * phase, after the barrier, by the worker that owns the destination
 * shard — so mailboxes need no locks, the epoch barrier itself is
 * the synchronisation.
 *
 * Mail holds its callable in a move-only holder backed by the
 * coroutine-frame pool (sim/task.h), not in a std::function, which
 * heap-allocates any capture over 16 bytes or not trivially
 * copyable; a capture small and trivial enough for a std::function's
 * own storage stays inside the holder. The holder destroys the
 * callable exactly once: after it runs, when its destination shard
 * died before the merge, or with the engine while the mail is still
 * queued. Once the pool is warm, a post allocates nothing with one
 * worker, and nothing between workers when the mail goes back and
 * forth in one size. A block released on another worker than the one
 * that allocated it joins that worker's pool only if the pool holds
 * no block of its size, else the global heap takes it
 * (FramePool::releaseTo): a shared-kernel request and its reply
 * differ in size, and pooling every such block would grow the
 * receiver's free lists with every message.
 *
 * Each source also lists the destinations it mailed in the window;
 * the single-threaded barrier completion turns those lists into
 * per-destination source lists, so a merge visits only the mailboxes
 * that hold mail. At merge time the destination sorts all inbound
 * mail in the canonical (timestamp, source-shard, sequence) order and
 * schedules it, which assigns destination sequence numbers
 * deterministically.
 *
 * Determinism contract: every ordering decision — window bounds,
 * per-shard drain order, mailbox merge order — is a pure function of
 * the logical shard structure, never of the host thread count. The
 * `workers` parameter (the --shards flag) only chooses how many host
 * threads the fixed shard->worker mapping is folded onto; output is
 * bit-identical for any value, the same contract sim::Runner pins
 * for --jobs. A run with workers == 1 executes the identical epoch
 * loop inline with no thread traffic at all.
 */

#ifndef VPP_SIM_SHARD_H
#define VPP_SIM_SHARD_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/time.h"

namespace vpp::sim {

class ShardedSimulation
{
  public:
    /**
     * Default host worker count: VPP_SHARDS from the environment if
     * set to a positive integer, else 1. Unlike the sweep runner,
     * intra-run parallelism defaults off: a sweep already uses the
     * cores across rows, and nesting both multiplies threads.
     */
    static unsigned defaultWorkers();

    /**
     * @p shards    logical shard count (fixed by the scenario).
     * @p lookahead minimum cross-shard latency, > 0. Every post()
     *              from shard A to shard B must be timestamped at
     *              least this far after A's clock; in exchange the
     *              engine can run windows of this width in parallel.
     * @p workers   host threads; 0 means defaultWorkers(). Values
     *              above the shard count are clamped.
     */
    ShardedSimulation(unsigned shards, Duration lookahead,
                      unsigned workers = 0);
    ~ShardedSimulation();

    ShardedSimulation(const ShardedSimulation &) = delete;
    ShardedSimulation &operator=(const ShardedSimulation &) = delete;

    unsigned shards() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    unsigned workers() const { return workers_; }
    Duration lookahead() const { return lookahead_; }

    /** Shard @p i's private simulation (spawn/schedule onto it). */
    Simulation &shard(unsigned i) { return shards_.at(i)->sim; }

    /**
     * Deliver @p fn on shard @p dst at absolute time @p when (dst's
     * clock). Before run(), this schedules directly (setup). During
     * run() it must be called from code executing on some shard: a
     * post to the executing shard itself schedules directly; a post
     * to another shard is stamped (when, src, seq) and parked in the
     * src->dst mailbox until the epoch barrier. Cross-shard posts
     * must respect the lookahead: when >= src.now() + lookahead, or
     * SimPanic — that bound is exactly what makes the current
     * window safe to run in parallel.
     */
    template <typename F>
    void
    post(unsigned dst, SimTime when, F &&fn)
    {
        postErased(dst, when, Call(std::forward<F>(fn)));
    }

    /**
     * Run epochs until every shard's queue and every mailbox is
     * empty. Returns the maximum shard clock. The first error thrown
     * by any shard (lowest shard index wins, deterministically) is
     * rethrown here after all workers have stopped.
     */
    SimTime run();

    /** Epoch windows executed so far (deterministic). */
    std::uint64_t epochs() const { return epochs_; }

    /**
     * Hook run at the start of every epoch window, from the
     * single-threaded barrier-A completion (after the horizon is
     * proven, before any shard drains). The barrier's acquire/release
     * handshake orders it against all shard work on both sides, so it
     * is the one safe place to publish shared state that every shard
     * may read during the window — the kernel's per-segment epoch
     * snapshot uses exactly this. It fires identically at any worker
     * count (workers == 1 runs the same completion inline).
     */
    void setEpochHook(std::function<void()> hook)
    {
        epochHook_ = std::move(hook);
    }

    /**
     * Times the constructor clamped a requested worker count down to
     * the shard count (warned on stderr). Exposed for tests.
     */
    unsigned clampedWorkerRequests() const { return clamped_; }

    /** Cross-shard events posted so far (deterministic). */
    std::uint64_t crossEvents() const;

    /** Max shard clock (meaningful after run()). */
    SimTime now() const;

  private:
    /**
     * A move-only void() callable: inline when it is small and
     * trivially copyable, as Simulation::schedule keeps such
     * callables, else in a FramePool block (see the file comment).
     * The last holder destroys the callable and releases the block,
     * once.
     */
    class Call
    {
      public:
        template <typename F>
        explicit Call(F &&fn) : ops_(&kOps<std::decay_t<F>>)
        {
            using D = std::decay_t<F>;
            if constexpr (kInline<D>) {
                ::new (static_cast<void *>(store_.buf))
                    D(std::forward<F>(fn));
            } else {
                static_assert(alignof(D) <=
                              __STDCPP_DEFAULT_NEW_ALIGNMENT__);
                pool_ = detail::FramePool::owner();
                void *p = detail::FramePool::allocate(sizeof(D));
                try {
                    store_.obj = ::new (p) D(std::forward<F>(fn));
                } catch (...) {
                    detail::FramePool::release(p, sizeof(D));
                    throw;
                }
            }
        }

        Call(Call &&o) noexcept
            : store_(o.store_), ops_(std::exchange(o.ops_, nullptr)),
              pool_(o.pool_)
        {}

        Call &
        operator=(Call &&o) noexcept
        {
            if (this != &o) {
                reset();
                store_ = o.store_;
                ops_ = std::exchange(o.ops_, nullptr);
                pool_ = o.pool_;
            }
            return *this;
        }

        ~Call() { reset(); }

        void operator()() { ops_->invoke(*this); }

      private:
        union Store
        {
            void *obj; ///< the pooled block
            alignas(void *) unsigned char buf[2 * sizeof(void *)];
        };

        template <typename D>
        static constexpr bool kInline =
            sizeof(D) <= sizeof(Store) &&
            alignof(D) <= alignof(Store) &&
            std::is_trivially_copyable_v<D> &&
            std::is_trivially_destructible_v<D>;

        struct Ops
        {
            void (*invoke)(Call &);
            void (*destroy)(Call &) noexcept; ///< null when inline
        };

        template <typename D>
        static void
        invokeInline(Call &c)
        {
            (*std::launder(reinterpret_cast<D *>(c.store_.buf)))();
        }

        template <typename D>
        static void
        invokePooled(Call &c)
        {
            (*static_cast<D *>(c.store_.obj))();
        }

        template <typename D>
        static void
        destroyPooled(Call &c) noexcept
        {
            static_cast<D *>(c.store_.obj)->~D();
            detail::FramePool::releaseTo(c.pool_, c.store_.obj,
                                         sizeof(D));
        }

        template <typename D>
        static constexpr Ops kOps =
            kInline<D> ? Ops{&invokeInline<D>, nullptr}
                       : Ops{&invokePooled<D>, &destroyPooled<D>};

        void
        reset() noexcept
        {
            const Ops *ops = std::exchange(ops_, nullptr);
            if (ops && ops->destroy)
                ops->destroy(*this);
        }

        Store store_;
        const Ops *ops_;
        const void *pool_ = nullptr; ///< FramePool::owner() of the poster
    };

    /** A cross-shard event parked in a mailbox. */
    struct Mail
    {
        SimTime when;
        std::uint32_t src;
        std::uint64_t seq;
        Call fn;
    };

    struct Shard
    {
        Simulation sim;
        std::uint64_t outSeq = 0; ///< stamps this shard's posts
        std::uint64_t posted = 0; ///< cross-shard posts from here
        bool dead = false;        ///< drain threw; out of the run
        std::vector<Mail> inbox;  ///< merge staging, owner-only
        /// Destinations first mailed this window; written only by
        /// the worker draining this shard.
        std::vector<std::uint32_t> postedTo;
        /// Sources holding mail for this shard; written only by the
        /// barrier-B completion, read by this shard's merge.
        std::vector<std::uint32_t> mailFrom;
    };

    /**
     * Sense-reversing epoch barrier. The last arriver runs the
     * completion (single-threaded) and releases the others. Waiters
     * spin briefly — the sub-microsecond path that makes thin
     * windows affordable when every worker has its own core — and
     * then block on a condition variable, so an oversubscribed host
     * (more workers than cores) degrades to scheduler waits instead
     * of burning the very cores the shards need.
     */
    class EpochBarrier
    {
      public:
        /**
         * @p spin false skips the spin phase entirely — set when the
         * host has fewer cores than workers, where spinning only
         * steals cycles from the thread everyone is waiting for.
         */
        EpochBarrier(unsigned n, bool spin)
            : n_(n), spinLimit_(spin ? kSpinLimit : 0)
        {}

        template <typename F>
        void
        arriveAndWait(bool &localSense, F &&completion)
        {
            const bool sense = !localSense;
            localSense = sense;
            if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                n_) {
                count_.store(0, std::memory_order_relaxed);
                completion();
                release(sense);
            } else {
                for (int i = 0; i < spinLimit_; ++i) {
                    if (sense_.load(std::memory_order_acquire) ==
                        sense)
                        return;
                    cpuRelax();
                }
                blockUntil(sense);
            }
        }

      private:
        static constexpr int kSpinLimit = 1 << 10;

        static void cpuRelax();
        void release(bool sense);
        void blockUntil(bool sense);

        unsigned n_;
        int spinLimit_;
        std::atomic<unsigned> count_{0};
        std::atomic<bool> sense_{false};
        std::mutex mu_;
        std::condition_variable cv_;
    };

    void postErased(unsigned dst, SimTime when, Call fn);

    void workerLoop(unsigned w, unsigned stride);
    void mergeShard(unsigned s);
    void drainShard(unsigned s);
    void computeHorizon();
    void routeMail();

    Duration lookahead_;
    unsigned workers_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /// Mailboxes, [src * shards + dst]. Single writer per window,
    /// read only across the epoch barrier.
    std::vector<std::vector<Mail>> mail_;
    std::vector<SimTime> shardMin_; ///< per-shard next-event time
    std::vector<std::exception_ptr> shardErrors_;
    std::atomic<unsigned> errorCount_{0};
    std::unique_ptr<EpochBarrier> barrierA_;
    std::unique_ptr<EpochBarrier> barrierB_;
    SimTime horizon_ = 0;
    /// The run's first window enters every shard, idle or not, so an
    /// error a setup spawn left pending surfaces as it always did.
    bool firstWindow_ = false;
    std::uint64_t epochs_ = 0;
    std::function<void()> epochHook_;
    unsigned clamped_ = 0;
    bool done_ = false;
    bool running_ = false;
};

} // namespace vpp::sim

#endif // VPP_SIM_SHARD_H
