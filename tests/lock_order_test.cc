/**
 * @file
 * Lock-order validator tests (util/lock_order.h): the rank-inversion,
 * recursion and same-rank-cycle detectors via the raw hook API, the
 * exist::Mutex integration under EXIST_DEBUG_LOCK_ORDER, and the
 * zero-overhead guarantee when the hooks are compiled out.
 */
#include "util/lock_order.h"

#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_annotations.h"

namespace exist {
namespace {

using lockorder::LockRank;
using lockorder::Violation;

int
rank(LockRank r)
{
    return static_cast<int>(r);
}

/** Records violations instead of panicking; restores state on exit. */
class LockOrderTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        lockorder::resetThread();
        lockorder::forgetEdges();
        previous_ = lockorder::setViolationHandler(
            [this](const Violation &v) { violations_.push_back(v); });
    }

    void
    TearDown() override
    {
        lockorder::setViolationHandler(std::move(previous_));
        lockorder::resetThread();
        lockorder::forgetEdges();
    }

    std::vector<Violation> violations_;

  private:
    lockorder::Handler previous_;
};

TEST_F(LockOrderTest, CleanAscendingOrderPasses)
{
    int pool = 0, shard = 0, metrics = 0;
    lockorder::onAcquire(&pool, rank(LockRank::kPool), "pool");
    lockorder::onAcquire(&shard, rank(LockRank::kShard), "shard");
    lockorder::onAcquire(&metrics, rank(LockRank::kMetrics), "metrics");
    EXPECT_EQ(lockorder::heldCount(), 3u);
    lockorder::onRelease(&metrics);
    lockorder::onRelease(&shard);
    lockorder::onRelease(&pool);
    EXPECT_EQ(lockorder::heldCount(), 0u);
    EXPECT_TRUE(violations_.empty());
}

TEST_F(LockOrderTest, RankInversionDetected)
{
    int shard = 0, pool = 0;
    lockorder::onAcquire(&shard, rank(LockRank::kShard), "shard");
    lockorder::onAcquire(&pool, rank(LockRank::kPool), "pool");
    ASSERT_EQ(violations_.size(), 1u);
    EXPECT_EQ(violations_[0].kind, Violation::Kind::kRankInversion);
    // The report names both ends of the inversion.
    EXPECT_NE(violations_[0].message.find("pool"), std::string::npos);
    EXPECT_NE(violations_[0].message.find("shard"), std::string::npos);
    lockorder::onRelease(&pool);
    lockorder::onRelease(&shard);
}

TEST_F(LockOrderTest, RecursiveAcquireDetected)
{
    int mu = 0;
    lockorder::onAcquire(&mu, rank(LockRank::kLeaf), "leaf");
    lockorder::onAcquire(&mu, rank(LockRank::kLeaf), "leaf");
    ASSERT_EQ(violations_.size(), 1u);
    EXPECT_EQ(violations_[0].kind, Violation::Kind::kRecursive);
    lockorder::onRelease(&mu);
    lockorder::onRelease(&mu);
    EXPECT_EQ(lockorder::heldCount(), 0u);
}

TEST_F(LockOrderTest, SameRankSingleOrderTolerated)
{
    int a = 0, b = 0;
    for (int i = 0; i < 3; ++i) {
        lockorder::onAcquire(&a, rank(LockRank::kLeaf), "cache.a");
        lockorder::onAcquire(&b, rank(LockRank::kLeaf), "cache.b");
        lockorder::onRelease(&b);
        lockorder::onRelease(&a);
    }
    EXPECT_TRUE(violations_.empty());
}

TEST_F(LockOrderTest, SameRankCycleDetected)
{
    int a = 0, b = 0;
    lockorder::onAcquire(&a, rank(LockRank::kLeaf), "cache.a");
    lockorder::onAcquire(&b, rank(LockRank::kLeaf), "cache.b");
    lockorder::onRelease(&b);
    lockorder::onRelease(&a);
    EXPECT_TRUE(violations_.empty());

    // The reverse nesting completes a deadlock candidate even though
    // this single-threaded pass can never actually deadlock.
    lockorder::onAcquire(&b, rank(LockRank::kLeaf), "cache.b");
    lockorder::onAcquire(&a, rank(LockRank::kLeaf), "cache.a");
    ASSERT_EQ(violations_.size(), 1u);
    EXPECT_EQ(violations_[0].kind, Violation::Kind::kSameRankCycle);
    lockorder::onRelease(&a);
    lockorder::onRelease(&b);
}

TEST_F(LockOrderTest, OutOfOrderReleaseIsLegal)
{
    // Hand-over-hand: release the earlier lock while keeping the later.
    int a = 0, b = 0;
    lockorder::onAcquire(&a, rank(LockRank::kPool), "a");
    lockorder::onAcquire(&b, rank(LockRank::kShard), "b");
    lockorder::onRelease(&a);
    EXPECT_EQ(lockorder::heldCount(), 1u);
    lockorder::onRelease(&b);
    EXPECT_EQ(lockorder::heldCount(), 0u);
    EXPECT_TRUE(violations_.empty());
}

TEST_F(LockOrderTest, ReleaseOfUntrackedLockIgnored)
{
    int stranger = 0;
    lockorder::onRelease(&stranger);
    EXPECT_EQ(lockorder::heldCount(), 0u);
    EXPECT_TRUE(violations_.empty());
}

#if defined(EXIST_DEBUG_LOCK_ORDER)

TEST_F(LockOrderTest, MutexHooksReportInversion)
{
    Mutex shard(LockRank::kShard, "test.shard");
    Mutex pool(LockRank::kPool, "test.pool");
    {
        MutexLock outer(shard);
        MutexLock inner(pool);  // descends the hierarchy: flagged
        EXPECT_EQ(lockorder::heldCount(), 2u);
    }
    ASSERT_EQ(violations_.size(), 1u);
    EXPECT_EQ(violations_[0].kind, Violation::Kind::kRankInversion);
    EXPECT_EQ(lockorder::heldCount(), 0u);
}

TEST_F(LockOrderTest, MutexHooksAcceptHierarchy)
{
    // The documented nesting the code actually performs: commit log,
    // then shard state, then a store, then metrics.
    Mutex log(LockRank::kCommitLog, "test.log");
    Mutex shard(LockRank::kShard, "test.shard");
    Mutex store(LockRank::kStore, "test.store");
    Mutex metrics(LockRank::kMetrics, "test.metrics");
    {
        MutexLock l1(log);
        MutexLock l2(shard);
        MutexLock l3(store);
        MutexLock l4(metrics);
        EXPECT_EQ(lockorder::heldCount(), 4u);
    }
    EXPECT_TRUE(violations_.empty());
    EXPECT_EQ(lockorder::heldCount(), 0u);
}

TEST_F(LockOrderTest, CondVarWaitReacquiresThroughHooks)
{
    // CondVar::wait unlocks and relocks through the instrumented
    // Mutex, so a satisfied wait leaves the held stack unchanged.
    Mutex mu(LockRank::kLeaf, "test.cv");
    CondVar cv;
    {
        MutexLock lk(mu);
        cv.notify_all();  // nothing waits; just exercise the pair
        EXPECT_EQ(lockorder::heldCount(), 1u);
    }
    EXPECT_EQ(lockorder::heldCount(), 0u);
    EXPECT_TRUE(violations_.empty());
}

#else  // !EXIST_DEBUG_LOCK_ORDER

// Release builds must pay nothing for the validator: no rank/name
// storage in the mutex...
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "exist::Mutex must be layout-identical to std::mutex "
              "when EXIST_DEBUG_LOCK_ORDER is off");

TEST_F(LockOrderTest, HooksCompiledOut)
{
    // ...and no hook calls: locking never touches the held stack.
    Mutex mu(LockRank::kShard, "test.noop");
    MutexLock lk(mu);
    EXPECT_EQ(lockorder::heldCount(), 0u);
    EXPECT_TRUE(violations_.empty());
}

#endif  // EXIST_DEBUG_LOCK_ORDER

}  // namespace
}  // namespace exist
