// Tests of the benchmark's own helpers.
//
//   cmake --build <dir> --target perfbench_tests && <dir>/perfbench_tests
#include <gtest/gtest.h>

#include "admission/service.h"
#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_FALSE(reportable_percentile(0).has_value());
  EXPECT_FALSE(reportable_percentile(19).has_value());
  EXPECT_EQ(reportable_percentile(20), 50.0);
  EXPECT_EQ(reportable_percentile(39), 50.0);
  EXPECT_EQ(reportable_percentile(40), 75.0);
  EXPECT_EQ(reportable_percentile(100), 90.0);
  EXPECT_EQ(reportable_percentile(200), 95.0);
  // No p99 below 1000 samples.
  EXPECT_EQ(reportable_percentile(999), 95.0);
  EXPECT_EQ(reportable_percentile(1000), 99.0);
  EXPECT_EQ(reportable_percentile(9999), 99.0);
  EXPECT_EQ(reportable_percentile(10000), 99.9);
}

TEST(Histogram, NearestRankWithinHalfAPercent) {
  Histogram h;
  EXPECT_EQ(h.percentile(50.0), 0.0);
  for (int i = 1; i <= 1000; ++i) h.add(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.percentile(50.0), 500.0, 500.0 * 0.005);
  EXPECT_NEAR(h.percentile(99.0), 990.0, 990.0 * 0.005);
  EXPECT_NEAR(h.percentile(100.0), 1000.0, 1000.0 * 0.005);
  EXPECT_NEAR(h.percentile(0.0), 1.0, 0.005);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(99.0), 0.0);
}

TEST(Histogram, FixedFootprintAtAnyCount) {
  Histogram h;
  for (int i = 0; i < 2'000'000; ++i) h.add(3.0 + (i % 7));
  EXPECT_EQ(h.count(), 2'000'000u);
  EXPECT_LT(sizeof(Histogram), std::size_t{16} << 10);
  EXPECT_NEAR(h.percentile(50.0), 6.0, 6.0 * 0.005);
}

TEST(Median, MeanOfTheMiddlePair) {
  EXPECT_EQ(median({3.0, 1.0, 2.0, 4.0}), 2.5);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, NestedSpansSubtractDirectChildren) {
  Tracer tracer;
  const auto root = tracer.add(Layer::kClient, "root", 0, 100);
  const auto child = tracer.add(Layer::kCore, "child", 10, 40, root);
  tracer.add(Layer::kPower, "grandchild", 20, 30, child);
  tracer.add(Layer::kAudit, "sibling", 50, 90, root);
  tracer.add(Layer::kFleet, "replay", 100, 130, -1, /*reference=*/true);

  const LayerTimes main = self_times(tracer.spans(), false);
  EXPECT_DOUBLE_EQ(main.self(Layer::kClient), 30e-9);  // 100 - 30 - 40
  EXPECT_DOUBLE_EQ(main.self(Layer::kCore), 20e-9);    // 30 - 10
  EXPECT_DOUBLE_EQ(main.self(Layer::kPower), 10e-9);
  EXPECT_DOUBLE_EQ(main.self(Layer::kAudit), 40e-9);
  EXPECT_DOUBLE_EQ(main.self(Layer::kFleet), 0.0);

  const LayerTimes ref = self_times(tracer.spans(), true);
  EXPECT_DOUBLE_EQ(ref.self(Layer::kFleet), 30e-9);
  EXPECT_DOUBLE_EQ(ref.self(Layer::kClient), 0.0);
}

TEST(SelfTime, ScopesNestInOpenOrder) {
  Tracer tracer;
  {
    Scope outer(&tracer, Layer::kClient, "outer");
    Scope inner(&tracer, Layer::kAdmission, "inner");
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, tracer.spans()[0].id);
  EXPECT_LE(tracer.spans()[0].begin_ns, tracer.spans()[1].begin_ns);
  EXPECT_GE(tracer.spans()[0].end_ns, tracer.spans()[1].end_ns);
  Scope untraced(nullptr, Layer::kCore, "no-op");
  EXPECT_EQ(untraced.id(), -1);
}

TEST(FailedFrac, RejectedAdmissionIsADecisionNotAFailure) {
  using namespace lpfps;
  // Adding a task that overloads a half-loaded set is rejected by both
  // the incremental service and the from-scratch reference.
  sched::Task base = sched::make_task("base", 100, 50.0);
  base.priority = 1;
  sched::Task hog = sched::make_task("hog", 100, 90.0);
  hog.priority = 2;
  admission::Request request;
  request.kind = admission::RequestKind::kAdd;
  request.task = hog;

  const sched::TaskSet initial({base});
  admission::AdmissionService incremental(initial, {});
  admission::ServiceConfig scratch_config;
  scratch_config.incremental = false;
  admission::AdmissionService scratch(initial, scratch_config);
  const admission::Decision got = incremental.handle(request);
  const admission::Decision want = scratch.handle(request);
  ASSERT_FALSE(got.admitted);

  Tally tally;
  tally.record(decision_digest(got) == decision_digest(want));
  EXPECT_EQ(tally.attempted, 1);
  EXPECT_EQ(tally.failed, 0);
  EXPECT_EQ(tally.failed_frac(), 0.0);

  admission::Decision wrong = got;
  wrong.min_level = 3;
  tally.record(decision_digest(wrong) == decision_digest(want));
  tally.fail_after();
  EXPECT_EQ(tally.attempted, 2);
  EXPECT_EQ(tally.failed, 2);
  EXPECT_EQ(tally.failed_frac(), 1.0);
}

class Repeat : public ::testing::TestWithParam<std::string> {};

TEST_P(Repeat, IdenticalDigestsAcrossTwoInProcessRuns) {
  RunConfig config;
  config.workload = GetParam();
  config.seconds = 1e-3;  // One pass per window.
  const RunResult first = run(config);
  const RunResult second = run(config);
  EXPECT_TRUE(first.correct());
  EXPECT_TRUE(second.correct());
  EXPECT_EQ(first.tally.failed, 0);
  EXPECT_NE(first.digest, 0u);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.metrics.size(), end_to_end_schema().size());
}

INSTANTIATE_TEST_SUITE_P(Workloads, Repeat,
                         ::testing::ValuesIn(workload_names()));

}  // namespace
}  // namespace perfbench
