#include "db/lock.h"

#include <string>

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

HierarchicalLockManager::HierarchicalLockManager(sim::Simulation &s,
                                                 int relations)
    : sim_(&s)
{
    relations_.reserve(relations);
    for (int i = 0; i < relations; ++i)
        relations_.push_back(std::make_unique<MultiModeLock>(s));
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

MultiModeLock::Acquire
HierarchicalLockManager::lockPage(int rel, std::uint64_t page,
                                  LockMode m)
{
    return pages_.try_emplace(PageKey{rel, page}, *sim_)
        .first->second.acquire(m);
}

void
HierarchicalLockManager::unlockPage(int rel, std::uint64_t page,
                                    LockMode m)
{
    auto it = pages_.find(PageKey{rel, page});
    if (it == pages_.end())
        throw sim::SimPanic("unlockPage of a page with no live lock");
    it->second.release(m);
    if (it->second.idle())
        pages_.erase(it);
}

} // namespace vpp::db
