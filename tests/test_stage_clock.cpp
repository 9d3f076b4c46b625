#include "common/stage_clock.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

namespace fastsc {
namespace {

void spin_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(StageClock, UnknownStageIsZero) {
  StageClock clock;
  EXPECT_EQ(clock.seconds("never"), 0.0);
  EXPECT_EQ(clock.total_seconds(), 0.0);
}

TEST(StageClock, AccumulatesElapsedTime) {
  StageClock clock;
  clock.start("a");
  spin_ms(20);
  clock.stop();
  EXPECT_GE(clock.seconds("a"), 0.015);
  EXPECT_LT(clock.seconds("a"), 2.0);
}

TEST(StageClock, StartPausesPreviousStage) {
  StageClock clock;
  clock.start("a");
  spin_ms(5);
  clock.start("b");  // pauses "a", banking its elapsed time
  spin_ms(5);
  clock.stop();  // stops "b", resumes "a"
  const double a_banked = clock.seconds("a");
  EXPECT_GE(a_banked, 0.004);
  EXPECT_GE(clock.seconds("b"), 0.004);
  spin_ms(5);
  clock.stop();  // now "a" ends, adding the post-"b" interval
  EXPECT_GT(clock.seconds("a"), a_banked);  // it really resumed
}

TEST(StageClock, NestedStartTracksDepthAndExclusiveTime) {
  // Regression for nested instrumentation (an inner span starting a stage
  // while an outer stage runs): the stack must pause/resume rather than
  // orphan the outer stage, and total_seconds() must not double-count the
  // nested interval.
  StageClock clock;
  EXPECT_EQ(clock.depth(), 0u);
  clock.start("outer");
  EXPECT_EQ(clock.depth(), 1u);
  spin_ms(5);
  clock.start("inner");
  EXPECT_EQ(clock.depth(), 2u);
  spin_ms(50);
  clock.stop();
  EXPECT_EQ(clock.depth(), 1u);
  spin_ms(5);
  clock.stop();
  EXPECT_EQ(clock.depth(), 0u);
  const double outer = clock.seconds("outer");
  const double inner = clock.seconds("inner");
  EXPECT_GE(outer, 0.008);  // both outer slices, not the inner one
  EXPECT_GE(inner, 0.045);
  EXPECT_DOUBLE_EQ(clock.total_seconds(), outer + inner);
  // Exclusive accounting: outer's own time excludes inner's ~50ms interval.
  EXPECT_LT(outer, 0.045);
}

TEST(StageClock, NestedSameStageResumesAccumulation) {
  StageClock clock;
  clock.start("x");
  clock.start("x");  // nested start of the same stage
  spin_ms(5);
  clock.stop();
  clock.stop();
  EXPECT_EQ(clock.depth(), 0u);
  EXPECT_GE(clock.seconds("x"), 0.004);
  ASSERT_EQ(clock.stages().size(), 1u);
}

TEST(StageClock, ResumingAccumulates) {
  StageClock clock;
  clock.start("x");
  spin_ms(10);
  clock.stop();
  const double first = clock.seconds("x");
  clock.start("x");
  spin_ms(10);
  clock.stop();
  EXPECT_GT(clock.seconds("x"), first);
}

TEST(StageClock, TotalIsSumOfStages) {
  StageClock clock;
  clock.start("a");
  spin_ms(2);
  clock.stop();
  clock.start("b");
  spin_ms(2);
  clock.stop();
  EXPECT_GT(clock.seconds("a"), 0.0);
  EXPECT_GT(clock.seconds("b"), 0.0);
  EXPECT_DOUBLE_EQ(clock.total_seconds(),
                   clock.seconds("a") + clock.seconds("b"));
}

TEST(StageClock, StagesInFirstStartOrder) {
  StageClock clock;
  for (const char* stage : {"third", "first", "third"}) {
    clock.start(stage);
    clock.stop();
  }
  const auto names = clock.stages();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "third");
  EXPECT_EQ(names[1], "first");
}

TEST(StageClock, ClearRemovesEverything) {
  StageClock clock;
  clock.start("a");
  spin_ms(1);
  clock.stop();
  clock.clear();
  EXPECT_EQ(clock.total_seconds(), 0.0);
  EXPECT_TRUE(clock.stages().empty());
}

TEST(StageClock, DoubleStopIsHarmless) {
  StageClock clock;
  clock.start("a");
  clock.stop();
  const double t = clock.seconds("a");
  clock.stop();
  EXPECT_DOUBLE_EQ(clock.seconds("a"), t);
}

TEST(StageClock, CopyAndMovePreserveRecordedTimes) {
  StageClock clock;
  clock.start("a");
  spin_ms(1);
  clock.stop();
  const double first = clock.seconds("a");
  StageClock copied(clock);
  EXPECT_DOUBLE_EQ(copied.seconds("a"), first);
  copied.start("a");
  spin_ms(1);
  copied.stop();
  const double second = copied.seconds("a");
  EXPECT_GT(second, first);
  EXPECT_DOUBLE_EQ(clock.seconds("a"), first);  // deep copy, not shared
  StageClock moved(std::move(copied));
  EXPECT_DOUBLE_EQ(moved.seconds("a"), second);
  clock = moved;
  EXPECT_DOUBLE_EQ(clock.seconds("a"), second);
}

}  // namespace
}  // namespace fastsc
