// Cross-thread trace propagation: TraceContext capture/adoption, detached
// roots, stitching, the Chrome export's span-id args and flow arrows, and --
// under FBT_OBS=ON -- the JobSystem's context re-entry across workers.
// The heavy concurrent tests double as TSan targets (the obs label runs in
// the -fsanitize=thread CI job).
#include "obs/phase.hpp"

#include <atomic>
#include <cstddef>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "jobs/job_system.hpp"
#include "obs/json.hpp"

namespace fbt::obs {
namespace {

/// Depth-first search of a stitched forest by span name.
const PhaseNode* find_named(const std::vector<PhaseNode>& nodes,
                            const std::string& name) {
  for (const PhaseNode& n : nodes) {
    if (n.name == name) return &n;
    if (const PhaseNode* hit = find_named(n.children, name)) return hit;
  }
  return nullptr;
}

std::size_t count_named(const std::vector<PhaseNode>& nodes,
                        const std::string& name) {
  std::size_t total = 0;
  for (const PhaseNode& n : nodes) {
    total += (n.name == name ? 1 : 0) + count_named(n.children, name);
  }
  return total;
}

TEST(TraceContext, FollowsTheOpenSpanStack) {
  PhaseTrace::instance().clear();
  EXPECT_EQ(current_trace_context().span_id, 0u);
  {
    PhaseSpan outer("ctx_outer");
    const TraceContext outer_ctx = current_trace_context();
    EXPECT_NE(outer_ctx.span_id, 0u);
    {
      PhaseSpan inner("ctx_inner");
      const TraceContext inner_ctx = current_trace_context();
      EXPECT_NE(inner_ctx.span_id, outer_ctx.span_id);
      EXPECT_EQ(inner_ctx.parent_id, outer_ctx.span_id);
    }
    EXPECT_EQ(current_trace_context().span_id, outer_ctx.span_id);
  }
  EXPECT_EQ(current_trace_context().span_id, 0u);
}

TEST(TraceContext, AdoptionParentsSpansAcrossRawThreads) {
  PhaseTrace::instance().clear();
  TraceContext captured{};
  {
    PhaseSpan outer("adopt_outer");
    captured = current_trace_context();
    std::thread other([captured] {
      // Without adoption the remote span would be an orphan root.
      TraceContextScope scope(captured);
      EXPECT_EQ(current_trace_context().span_id, captured.span_id);
      PhaseSpan remote("adopt_remote");
    });
    other.join();
  }
  // Raw roots: the remote span is recorded detached, carrying the captured
  // parent id; stitching re-attaches it under the outer span.
  const std::vector<PhaseNode> raw = PhaseTrace::instance().roots();
  const PhaseNode* detached = find_named(raw, "adopt_remote");
  ASSERT_NE(detached, nullptr);
  EXPECT_EQ(detached->parent_span_id, captured.span_id);
  const std::vector<PhaseNode> stitched = PhaseTrace::instance().stitched_roots();
  const PhaseNode* outer = find_named(stitched, "adopt_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_NE(find_named(outer->children, "adopt_remote"), nullptr);
}

TEST(TraceContext, LocalStackWinsOverAdoptedContext) {
  PhaseTrace::instance().clear();
  {
    PhaseSpan outer("local_outer");
    const std::uint64_t outer_id = current_trace_context().span_id;
    TraceContextScope scope(TraceContext{9999999, 0});
    // The local open span is innermost; the adopted context must not
    // reparent spans nested under it.
    PhaseSpan inner("local_inner");
    EXPECT_EQ(current_trace_context().parent_id, outer_id);
  }
  const std::vector<PhaseNode> stitched = PhaseTrace::instance().stitched_roots();
  const PhaseNode* outer = find_named(stitched, "local_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_NE(find_named(outer->children, "local_inner"), nullptr);
}

TEST(StitchPhaseRoots, ReattachesByParentIdInStartOrder) {
  std::vector<PhaseNode> roots;
  PhaseNode parent;
  parent.name = "p";
  parent.span_id = 10;
  PhaseNode local_child;
  local_child.name = "c_local";
  local_child.span_id = 11;
  local_child.parent_span_id = 10;
  local_child.start_us = 50;
  parent.children.push_back(local_child);
  roots.push_back(parent);
  PhaseNode detached_early;
  detached_early.name = "c_detached_early";
  detached_early.span_id = 12;
  detached_early.parent_span_id = 10;
  detached_early.start_us = 10;
  roots.push_back(detached_early);
  PhaseNode detached_late;
  detached_late.name = "c_detached_late";
  detached_late.span_id = 13;
  detached_late.parent_span_id = 10;
  detached_late.start_us = 90;
  roots.push_back(detached_late);

  const std::vector<PhaseNode> stitched = stitch_phase_roots(std::move(roots));
  ASSERT_EQ(stitched.size(), 1u);
  ASSERT_EQ(stitched[0].children.size(), 3u);
  EXPECT_EQ(stitched[0].children[0].name, "c_detached_early");
  EXPECT_EQ(stitched[0].children[1].name, "c_local");
  EXPECT_EQ(stitched[0].children[2].name, "c_detached_late");
}

TEST(StitchPhaseRoots, ChainsOfDetachedRootsResolveTransitively) {
  // grandchild -> child -> parent, all recorded as separate roots (the
  // completion order across workers is arbitrary).
  PhaseNode parent;
  parent.name = "p";
  parent.span_id = 1;
  PhaseNode child;
  child.name = "c";
  child.span_id = 2;
  child.parent_span_id = 1;
  PhaseNode grandchild;
  grandchild.name = "g";
  grandchild.span_id = 3;
  grandchild.parent_span_id = 2;
  const std::vector<PhaseNode> stitched =
      stitch_phase_roots({grandchild, parent, child});
  ASSERT_EQ(stitched.size(), 1u);
  const PhaseNode* c = find_named(stitched, "c");
  ASSERT_NE(c, nullptr);
  EXPECT_NE(find_named(c->children, "g"), nullptr);
}

TEST(StitchPhaseRoots, UnresolvableParentStaysRoot) {
  PhaseNode orphan;
  orphan.name = "orphan";
  orphan.span_id = 5;
  orphan.parent_span_id = 4242;  // never recorded (e.g. cleared trace)
  const std::vector<PhaseNode> stitched = stitch_phase_roots({orphan});
  ASSERT_EQ(stitched.size(), 1u);
  EXPECT_EQ(stitched[0].name, "orphan");
}

#if FBT_OBS_ENABLED

TEST(JobSystemTracing, SubmittedTasksParentUnderTheSubmitSite) {
  PhaseTrace::instance().clear();
  jobs::JobSystem pool(4);
  constexpr int kTasks = 32;
  {
    PhaseSpan root("jobs_root");
    std::vector<jobs::TaskHandle> handles;
    for (int i = 0; i < kTasks; ++i) {
      handles.push_back(pool.submit([] { PhaseSpan task("jobs_task"); }));
    }
    for (const jobs::TaskHandle& h : handles) pool.wait(h);
  }
  const std::vector<PhaseNode> stitched = PhaseTrace::instance().stitched_roots();
  const PhaseNode* root = find_named(stitched, "jobs_root");
  ASSERT_NE(root, nullptr);
  // Every task span must have been re-attached under the submitting span --
  // none dropped, none left dangling at the top level.
  EXPECT_EQ(count_named(root->children, "jobs_task"),
            static_cast<std::size_t>(kTasks));
  EXPECT_EQ(count_named(stitched, "jobs_task"),
            static_cast<std::size_t>(kTasks));
}

TEST(JobSystemTracing, ChromeExportCarriesSpanIdsAndFlowArrows) {
  PhaseTrace::instance().clear();
  jobs::JobSystem pool(2);
  {
    PhaseSpan root("flow_root");
    std::vector<jobs::TaskHandle> handles;
    for (int i = 0; i < 8; ++i) {
      handles.push_back(pool.submit([] { PhaseSpan task("flow_task"); }));
    }
    for (const jobs::TaskHandle& h : handles) pool.wait(h);
  }
  EXPECT_FALSE(PhaseTrace::instance().flows().empty());

  const std::string json = PhaseTrace::instance().chrome_trace_json();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(json, doc, error)) << error;
  ASSERT_TRUE(doc.is_array());

  std::set<double> span_ids;
  std::set<double> flow_starts;
  std::set<double> flow_finishes;
  for (const JsonValue& event : doc.array) {
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    const std::string kind = ph->as_string("");
    if (kind == "X") {
      const JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("span_id"), nullptr);
      ASSERT_NE(args->find("parent_span_id"), nullptr);
      span_ids.insert(args->find("span_id")->as_number());
    } else if (kind == "s") {
      flow_starts.insert(event.find("id")->as_number());
    } else if (kind == "f") {
      flow_finishes.insert(event.find("id")->as_number());
    }
  }
  // Parent ids reference recorded spans (or 0 = root).
  for (const JsonValue& event : doc.array) {
    if (event.find("ph")->as_string("") != "X") continue;
    const double parent = event.find("args")->find("parent_span_id")->as_number();
    if (parent != 0.0) {
      EXPECT_TRUE(span_ids.count(parent) != 0) << parent;
    }
  }
  // Every flow start has a matching finish and vice versa.
  EXPECT_FALSE(flow_starts.empty());
  EXPECT_EQ(flow_starts, flow_finishes);
}

// TSan stress: nested parallel_for, whose callers and helpers open spans on
// every worker at once. Context re-entry on helper tasks must never corrupt
// the phase tree or drop spans.
TEST(JobSystemTracing, ConcurrentNestedParallelForKeepsEverySpan) {
  PhaseTrace::instance().clear();
  constexpr int kOuter = 16;
  constexpr int kInner = 8;
  std::atomic<int> executed{0};
  {
    jobs::JobSystem pool(4);
    PhaseSpan root("stress_root");
    pool.parallel_for(kOuter, [&pool, &executed](std::size_t) {
      PhaseSpan mid("stress_mid");
      pool.parallel_for(kInner, [&executed](std::size_t) {
        PhaseSpan leaf("stress_leaf");
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  EXPECT_EQ(executed.load(), kOuter * kInner);
  const std::vector<PhaseNode> stitched = PhaseTrace::instance().stitched_roots();
  EXPECT_EQ(count_named(stitched, "stress_mid"),
            static_cast<std::size_t>(kOuter));
  EXPECT_EQ(count_named(stitched, "stress_leaf"),
            static_cast<std::size_t>(kOuter * kInner));
  // Every mid span lands in the root's subtree: directly on the caller's
  // thread, or through the context a helper task re-enters.
  const PhaseNode* root = find_named(stitched, "stress_root");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(count_named(root->children, "stress_mid"),
            static_cast<std::size_t>(kOuter));
}

#endif  // FBT_OBS_ENABLED

}  // namespace
}  // namespace fbt::obs
