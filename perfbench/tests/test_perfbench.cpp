/// The benchmark's own tests: seeded inputs are reproducible, the output
/// checkers reject wrong outputs, and the span tiling check catches gaps.
///
///   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "inputs.hpp"
#include "served.hpp"
#include "serve/plan_cache.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

TEST(Seeding, OneSeedAlwaysGivesTheSameJobsAndSchedule) {
  const JobPool a = make_job_pool(7, 2, 16, 4);
  const JobPool b = make_job_pool(7, 2, 16, 4);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].wire, b.jobs[i].wire);
    EXPECT_EQ(a.jobs[i].expected, b.jobs[i].expected);
  }
  SeededRng ra(7), rb(7);
  const auto sa = make_schedule(ra, a, 2000.0, 0.5, 2, 0.02);
  const auto sb = make_schedule(rb, b, 2000.0, 0.5, 2, 0.02);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].due_ns, sb[i].due_ns);
    EXPECT_EQ(sa[i].conn, sb[i].conn);
    EXPECT_EQ(sa[i].jobs, sb[i].jobs);
  }
  // A different seed gives different inputs.
  EXPECT_NE(make_job_pool(8, 2, 16, 4).jobs[0].wire, a.jobs[0].wire);
}

TEST(Seeding, OneSeedAlwaysGivesTheSameDeploymentsAndGraphs) {
  const auto a = make_deploy_plan(11, 40);
  const auto b = make_deploy_plan(11, 40);
  ASSERT_EQ(a.size(), 40u);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.front().kind, DeployStep::Kind::kNewGraph);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].graph.actors, b[i].graph.actors);
    EXPECT_EQ(a[i].graph.salt, b[i].graph.salt);
    EXPECT_EQ(a[i].pick, b[i].pick);
  }
  for (const Shape shape : {Shape::kChainFeedback, Shape::kDfsTree, Shape::kSccBlocks}) {
    const GraphSpec spec{shape, 300, 4, 99};
    const df::Graph g1 = make_graph(spec);
    const df::Graph g2 = make_graph(spec);
    const auto p1 = spi::core::compile_plan(g1, block_assignment(g1, spec.procs));
    const auto p2 = spi::core::compile_plan(g2, block_assignment(g2, spec.procs));
    EXPECT_EQ(p1.content_hash_hex(), p2.content_hash_hex());
    EXPECT_EQ(p1.to_json(), p2.to_json());
  }
}

TEST(Seeding, DeploySizesCoverTheRangeForEverySeed) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    int small = 0, large = 0;
    for (const DeployStep& s : make_deploy_plan(seed, 100)) {
      if (s.kind != DeployStep::Kind::kNewGraph) continue;
      EXPECT_GE(s.graph.actors, 100);
      EXPECT_LE(s.graph.actors, 10000);
      small += s.graph.actors < 1000;
      large += s.graph.actors >= 1000;
    }
    EXPECT_NEAR(small, large, 2) << "seed " << seed;
  }
}

TEST(Checker, RejectsACorruptedJobReply) {
  const JobPool pool = make_job_pool(3, 1, 4, 2);
  const std::string& expected = pool.jobs[0].expected;
  EXPECT_EQ(check_job_reply(200, expected, expected), "");
  std::string corrupted = expected;
  corrupted[corrupted.size() / 2] = corrupted[corrupted.size() / 2] == '1' ? '2' : '1';
  EXPECT_NE(check_job_reply(200, corrupted, expected), "");
  EXPECT_NE(check_job_reply(200, expected.substr(0, expected.size() - 2), expected), "");
  EXPECT_NE(check_job_reply(500, expected, expected), "");
  EXPECT_NE(check_job_reply(429, "{\"error\": \"queue full\"}\n", expected), "");
}

TEST(Checker, RejectsAWrongPlanIdentityOrCachedFlag) {
  const std::string key = "0123456789abcdef";
  const std::string fresh = "{\"plan\": \"" + key + "\", \"cached\": false, \"resident_bytes\": 64}\n";
  const std::string hit = "{\"plan\": \"" + key + "\", \"cached\": true, \"resident_bytes\": 64}\n";
  EXPECT_EQ(check_plan_ack(201, fresh, key, false), "");
  EXPECT_EQ(check_plan_ack(200, hit, key, true), "");
  EXPECT_NE(check_plan_ack(201, fresh, "fedcba9876543210", false), "");
  EXPECT_NE(check_plan_ack(201, fresh, key, true), "");
  EXPECT_NE(check_plan_ack(200, fresh, key, true), "");
  EXPECT_NE(check_plan_ack(429, "{\"error\": \"memory budget\"}\n", key, false), "");
}

TEST(Checker, LruModelPredictsThePlanCache) {
  // The model the deploy checker uses must agree with serve::PlanCache on
  // hits and evictions for any insert sequence.
  spi::serve::PlanCache cache(3);
  LruModel model(3);
  std::vector<spi::core::ExecutablePlan> plans;
  for (int i = 0; i < 5; ++i) {
    const df::Graph g = make_graph({Shape::kChainFeedback, 40 + i, 2, static_cast<std::uint64_t>(i)});
    plans.push_back(spi::core::compile_plan(g, block_assignment(g, 2)));
  }
  std::int64_t evicted = 0;
  for (const int i : {0, 1, 2, 0, 3, 1, 4, 0, 2, 2, 3}) {
    const std::string key = plans[static_cast<std::size_t>(i)].content_hash_hex();
    EXPECT_EQ(model.contains(key), cache.contains(key)) << "plan " << i;
    evicted += model.insert(key);
    (void)cache.insert(plans[static_cast<std::size_t>(i)]);
    EXPECT_EQ(evicted, cache.evictions());
  }
}

TEST(Http, TakesPipelinedResponsesInOrder) {
  std::string inbox =
      "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nabc"
      "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\nxy"
      "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\npart";
  HttpReply r;
  ASSERT_TRUE(take_response(inbox, r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "abc");
  ASSERT_TRUE(take_response(inbox, r));
  EXPECT_EQ(r.status, 429);
  EXPECT_EQ(r.body, "xy");
  EXPECT_FALSE(take_response(inbox, r));  // body incomplete
}

TEST(Tiling, AcceptsExactTilingAndComputesSelfTime) {
  SpanRecorder spans;
  const auto root = spans.add("job", 100, 200);
  spans.add("gen.late", 100, 130, root);
  spans.add("http.roundtrip", 130, 200, root);
  EXPECT_EQ(check_tiling(spans.spans(), root), "");
  const auto roll = spans.rollup();
  EXPECT_EQ(roll.at("job").self_ns, 0.0);
  EXPECT_EQ(roll.at("http.roundtrip").self_ns, 70.0);
}

TEST(Tiling, FailsOnAGap) {
  SpanRecorder spans;
  const auto root = spans.add("deploy", 0, 100);
  spans.add("compile", 0, 40, root);
  spans.add("post", 50, 100, root);
  EXPECT_NE(check_tiling(spans.spans(), root), "");
  EXPECT_NE(check_tiling(spans.spans(), root, 5), "");
  EXPECT_EQ(check_tiling(spans.spans(), root, 10), "");  // within tolerance
  // A tail gap and an overlap fail too; so does a childless span.
  SpanRecorder tail;
  const auto t = tail.add("job", 0, 100);
  tail.add("a", 0, 90, t);
  EXPECT_NE(check_tiling(tail.spans(), t), "");
  SpanRecorder overlap;
  const auto o = overlap.add("job", 0, 100);
  overlap.add("a", 0, 60, o);
  overlap.add("b", 50, 100, o);
  EXPECT_NE(check_tiling(overlap.spans(), o), "");
  EXPECT_NE(check_tiling(overlap.spans(), 1), "");
}

}  // namespace
}  // namespace perfbench
