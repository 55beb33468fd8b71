/**
 * @file
 * Tests for the Send/Reply crossing, ipc::cross.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "ipc/cross.h"

namespace vpp::ipc {
namespace {

using sim::usec;

/** When a crossing's body ran, and when its caller got the answer. */
struct Trace
{
    sim::SimTime entered = -1;
    sim::SimTime left = -1;
    sim::SimTime returned = -1;
    bool threw = false;
};

/** The server's work: 10 us, then optionally a failure. */
sim::Task<>
work(sim::Simulation &s, Trace *t, bool fail)
{
    t->entered = s.now();
    co_await s.delay(usec(10));
    t->left = s.now();
    if (fail)
        throw std::runtime_error("server failed");
}

/** One caller crossing at the DECstation's 141 us each way. */
sim::Task<>
caller(sim::Simulation &s, sim::SimMutex *lock, Trace *t,
       bool fail = false)
{
    try {
        co_await cross(s, lock, usec(141), usec(141),
                       [&] { return work(s, t, fail); });
    } catch (const std::runtime_error &) {
        t->threw = true;
    }
    t->returned = s.now();
}

TEST(IpcCross, ChargesInAndOutAroundTheBody)
{
    sim::Simulation s;
    Trace t;
    s.spawn(caller(s, nullptr, &t));
    s.run();
    EXPECT_EQ(t.entered, usec(141));
    EXPECT_EQ(t.left, usec(141 + 10));
    EXPECT_EQ(t.returned, usec(141 + 10 + 141));

    // An empty body task runs nothing; both charges still apply.
    bool called = false;
    s.spawn(cross(s, nullptr, usec(5), usec(7), [&] {
        called = true;
        return sim::Task<>{};
    }));
    const sim::SimTime start = s.now();
    s.run();
    EXPECT_TRUE(called);
    EXPECT_EQ(s.now() - start, usec(5 + 7));
}

TEST(IpcCross, CallersOnOneLockRunOneAfterTheOther)
{
    sim::Simulation s;
    sim::SimMutex lock(s);
    Trace a, b;
    s.spawn(caller(s, &lock, &a));
    s.spawn(caller(s, &lock, &b));
    s.run();
    EXPECT_EQ(a.entered, usec(141));
    EXPECT_EQ(a.returned, usec(141 + 10 + 141));
    // b arrives with a, then waits for a's body to release the lock.
    EXPECT_EQ(b.entered, a.left);
    EXPECT_EQ(b.left, usec(141 + 10 + 10));
    EXPECT_EQ(b.returned, usec(141 + 10 + 10 + 141));
}

TEST(IpcCross, ThrowingBodyReleasesTheLockAndSkipsOut)
{
    sim::Simulation s;
    sim::SimMutex lock(s);
    Trace a, b;
    s.spawn(caller(s, &lock, &a, /*fail=*/true));
    s.spawn(caller(s, &lock, &b));
    s.run();
    EXPECT_TRUE(a.threw);
    // The failure reaches the caller as the body ends: no reply charge.
    EXPECT_EQ(a.returned, a.left);
    EXPECT_EQ(a.returned, usec(141 + 10));
    // The lock was released, so the next caller still gets in.
    EXPECT_FALSE(b.threw);
    EXPECT_EQ(b.entered, a.left);
    EXPECT_EQ(b.returned, usec(141 + 10 + 10 + 141));
}

TEST(IpcCross, NullLockCallersDoNotWait)
{
    sim::Simulation s;
    Trace a, b;
    s.spawn(caller(s, nullptr, &a));
    s.spawn(caller(s, nullptr, &b));
    s.run();
    EXPECT_EQ(a.entered, usec(141));
    EXPECT_EQ(b.entered, usec(141));
    EXPECT_EQ(a.returned, usec(141 + 10 + 141));
    EXPECT_EQ(b.returned, usec(141 + 10 + 141));
}

TEST(IpcCross, CostFromMachineMatchesTable1Decomposition)
{
    hw::MachineConfig m = hw::decstation5000_200();
    CallCost c = CallCost::fromMachine(m);
    // ipcSend(35) + contextSwitch(106) each way.
    EXPECT_EQ(c.send, usec(141));
    EXPECT_EQ(c.reply, usec(141));
}

} // namespace
} // namespace vpp::ipc
