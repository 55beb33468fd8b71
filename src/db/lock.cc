#include "db/lock.h"

#include <bit>
#include <new>
#include <string>
#include <utility>

namespace vpp::db {

const char *
lockModeName(LockMode m)
{
    switch (m) {
      case LockMode::IS: return "IS";
      case LockMode::IX: return "IX";
      case LockMode::S: return "S";
      case LockMode::X: return "X";
    }
    return "?";
}

bool
lockCompatible(LockMode a, LockMode b)
{
    static const bool matrix[4][4] = {
        //            IS     IX     S      X
        /* IS */ {true, true, true, false},
        /* IX */ {true, true, false, false},
        /* S  */ {true, false, true, false},
        /* X  */ {false, false, false, false},
    };
    return matrix[static_cast<int>(a)][static_cast<int>(b)];
}

bool
MultiModeLock::compatibleWithHolders(LockMode m) const
{
    for (int i = 0; i < 4; ++i) {
        if (held_[i] > 0 &&
            !lockCompatible(m, static_cast<LockMode>(i))) {
            return false;
        }
    }
    return true;
}

bool
MultiModeLock::tryAcquire(LockMode m)
{
    if (waiters_.empty() && compatibleWithHolders(m)) {
        ++held_[static_cast<int>(m)];
        return true;
    }
    return false;
}

void
MultiModeLock::release(LockMode m)
{
    int &held = held_[static_cast<int>(m)];
    if (held <= 0) {
        throw sim::SimPanic(std::string("release of an unheld ") +
                            lockModeName(m) + " lock");
    }
    --held;
    drainQueue();
}

void
MultiModeLock::drainQueue()
{
    // Grant from the front while the next waiter is compatible; stop
    // at the first incompatible one (FIFO fairness). A granted entry
    // stays valid until the wake scheduled here resumes its frame.
    while (!waiters_.empty()) {
        auto &w = static_cast<Acquire &>(waiters_.front());
        if (!compatibleWithHolders(w.mode_))
            break;
        ++held_[static_cast<int>(w.mode_)];
        waitTime_ += sim_->now() - w.since_;
        waiters_.wakeFront(*sim_);
    }
}

namespace {

/**
 * Slots of a new manager's page table: room for 16 live page locks,
 * more than a node of the 32-node cluster study at 40k TPS ever holds,
 * so its tables never grow.
 */
constexpr std::size_t kFirstSlots = 32;

MultiModeLock *
makePageLock(sim::Simulation &s)
{
    void *p = sim::detail::FramePool::allocate(sizeof(MultiModeLock));
    return ::new (p) MultiModeLock(s);
}

void
dropPageLock(MultiModeLock *l) noexcept
{
    l->~MultiModeLock();
    sim::detail::FramePool::release(l, sizeof(MultiModeLock));
}

} // namespace

HierarchicalLockManager::HierarchicalLockManager(sim::Simulation &s,
                                                 int relations)
    : sim_(&s), slots_(kFirstSlots), mask_(kFirstSlots - 1),
      shift_(64 - std::countr_zero(kFirstSlots))
{
    relations_.reserve(relations);
    for (int i = 0; i < relations; ++i)
        relations_.push_back(std::make_unique<MultiModeLock>(s));
}

HierarchicalLockManager::~HierarchicalLockManager()
{
    // A lock still live here has a request parked in its queue; the
    // lock never touches the parked frame, so either may go first.
    for (const PageSlot &slot : slots_) {
        if (slot.lock)
            dropPageLock(slot.lock);
    }
}

MultiModeLock::Acquire
HierarchicalLockManager::lockRelation(int rel, LockMode m)
{
    return relations_.at(rel)->acquire(m);
}

void
HierarchicalLockManager::unlockRelation(int rel, LockMode m)
{
    relations_.at(rel)->release(m);
}

std::size_t
HierarchicalLockManager::home(int rel, std::uint64_t page) const
{
    // The top bits of a Fibonacci product, so no modulo; the relation
    // goes in above any page number the studies draw.
    const std::uint64_t k = page ^ (static_cast<std::uint64_t>(rel) << 48);
    return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ull) >> shift_);
}

std::size_t
HierarchicalLockManager::probe(int rel, std::uint64_t page) const
{
    std::size_t i = home(rel, page);
    while (slots_[i].lock &&
           (slots_[i].page != page || slots_[i].rel != rel))
        i = (i + 1) & mask_;
    return i;
}

MultiModeLock::Acquire
HierarchicalLockManager::lockPage(int rel, std::uint64_t page,
                                  LockMode m)
{
    std::size_t i = probe(rel, page);
    if (!slots_[i].lock) {
        if (2 * (live_ + 1) > mask_ + 1) {
            grow();
            i = probe(rel, page);
        }
        slots_[i] = PageSlot{page, rel, makePageLock(*sim_)};
        ++live_;
    }
    return slots_[i].lock->acquire(m);
}

void
HierarchicalLockManager::unlockPage(int rel, std::uint64_t page,
                                    LockMode m)
{
    const std::size_t i = probe(rel, page);
    MultiModeLock *lock = slots_[i].lock;
    if (!lock)
        throw sim::SimPanic("unlockPage of a page with no live lock");
    lock->release(m);
    if (lock->idle()) {
        dropPageLock(lock);
        erase(i);
        --live_;
    }
}

void
HierarchicalLockManager::grow()
{
    const sim::PoolVector<PageSlot> old = std::exchange(
        slots_, sim::PoolVector<PageSlot>(2 * slots_.size()));
    mask_ = slots_.size() - 1;
    --shift_;
    for (const PageSlot &slot : old) {
        if (slot.lock)
            slots_[probe(slot.rel, slot.page)] = slot;
    }
}

void
HierarchicalLockManager::erase(std::size_t hole)
{
    // Backward shift: walk the rest of the probe run and pull back
    // every slot whose home is not between the hole and itself, so
    // each key stays reachable from its home without a tombstone.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].lock;
         j = (j + 1) & mask_) {
        const std::size_t h = home(slots_[j].rel, slots_[j].page);
        if (((j - h) & mask_) >= ((j - hole) & mask_)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole].lock = nullptr;
}

} // namespace vpp::db
