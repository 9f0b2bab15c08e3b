// Tests for the observability subsystem: counter registration and merging,
// trace-sink formatting (JSONL + Chrome trace_event), sampling, the ambient
// TrialScope, and the disabled path (no hub / no sink = no-op).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/counters.h"
#include "obs/hub.h"
#include "obs/scope.h"
#include "obs/trace.h"

namespace meecc::obs {
namespace {

TEST(Counters, RegisterIncrementAndSnapshot) {
  Registry registry;
  Counter hits = registry.counter("cache.l1", "hits");
  Counter misses = registry.counter("cache.l1", "misses");
  hits.inc();
  hits.inc(9);
  misses.inc();
  EXPECT_EQ(hits.value(), 10u);
  EXPECT_EQ(misses.value(), 1u);

  // Same (group, name) resolves to the same slot.
  Counter hits_again = registry.counter("cache.l1", "hits");
  hits_again.inc();
  EXPECT_EQ(hits.value(), 11u);

  const CounterSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "cache.l1.hits");
  EXPECT_EQ(snapshot[0].value, 11u);
  EXPECT_EQ(snapshot[1].name, "cache.l1.misses");
  EXPECT_EQ(snapshot[1].value, 1u);
}

TEST(Counters, SnapshotIsSortedAcrossGroups) {
  Registry registry;
  registry.counter("mee", "walks").inc(3);
  registry.counter("cache.llc", "evictions").inc(1);
  registry.counter("des", "dispatched").inc(2);
  const CounterSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "cache.llc.evictions");
  EXPECT_EQ(snapshot[1].name, "des.dispatched");
  EXPECT_EQ(snapshot[2].name, "mee.walks");
}

TEST(Counters, GroupHandleNamesCompose) {
  Registry registry;
  CounterGroup group = registry.group("channel");
  group.counter("probe.hits").inc(5);
  EXPECT_EQ(snapshot_value(registry.snapshot(), "channel.probe.hits"), 5u);
}

TEST(Counters, HandlesSurviveLaterRegistrations) {
  Registry registry;
  Counter first = registry.counter("g", "a");
  first.inc();
  // Storms of new registrations must not invalidate the old slot.
  for (int i = 0; i < 200; ++i) {
    std::string group = "g";
    group += std::to_string(i);
    registry.counter(group, "x").inc();
  }
  first.inc();
  EXPECT_EQ(first.value(), 2u);
}

TEST(Counters, ResetZeroesButKeepsHandles) {
  Registry registry;
  Counter c = registry.counter("g", "a");
  c.inc(7);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(snapshot_value(registry.snapshot(), "g.a"), 1u);
}

TEST(Counters, DetachedCounterIsNoOp) {
  Counter detached;
  detached.inc();
  detached.inc(100);
  EXPECT_EQ(detached.value(), 0u);
  EXPECT_FALSE(detached.bound());

  CounterGroup detached_group;
  Counter from_group = detached_group.counter("anything");
  from_group.inc();
  EXPECT_FALSE(from_group.bound());
}

TEST(Counters, MergeSumsUnionOfNames) {
  CounterSnapshot a = {{"cache.l1.hits", 10}, {"mee.walks", 3}};
  CounterSnapshot b = {{"cache.l1.hits", 5}, {"des.dispatched", 7}};
  merge_into(a, b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(snapshot_value(a, "cache.l1.hits"), 15u);
  EXPECT_EQ(snapshot_value(a, "des.dispatched"), 7u);
  EXPECT_EQ(snapshot_value(a, "mee.walks"), 3u);
  // Result stays sorted — merge output is the serialization order.
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const CounterSample& x, const CounterSample& y) {
                               return x.name < y.name;
                             }));
}

TEST(Counters, SnapshotTotalSumsPrefix) {
  const CounterSnapshot snapshot = {{"mee.stop.l0", 2},
                                    {"mee.stop.versions", 5},
                                    {"mee.walks", 100}};
  EXPECT_EQ(snapshot_total(snapshot, "mee.stop."), 7u);
  EXPECT_EQ(snapshot_total(snapshot, "cache."), 0u);
  EXPECT_EQ(snapshot_value(snapshot, "absent"), 0u);
}

TEST(TraceSinks, JsonlFormatIsExact) {
  const TraceEvent event{.cycle = 480,
                         .component = Component::kMee,
                         .core = 0,
                         .addr = 0x1f40,
                         .kind = "walk",
                         .outcome = "versions",
                         .value = 2};
  EXPECT_EQ(JsonlTraceSink::to_json_line(event),
            "{\"cycle\":480,\"component\":\"mee\",\"core\":0,"
            "\"addr\":\"0x1f40\",\"kind\":\"walk\","
            "\"outcome\":\"versions\",\"value\":2}");

  std::ostringstream out;
  JsonlTraceSink sink(out);
  sink.emit(event);
  sink.emit(event);
  sink.flush();
  EXPECT_EQ(out.str(),
            JsonlTraceSink::to_json_line(event) + '\n' +
                JsonlTraceSink::to_json_line(event) + '\n');
}

TEST(TraceSinks, ChromeFormatIsAnEventArray) {
  std::ostringstream out;
  {
    ChromeTraceSink sink(out);
    sink.emit({.cycle = 10,
               .component = Component::kCache,
               .core = 1,
               .addr = 0x40,
               .kind = "evict",
               .outcome = "LLC",
               .value = 0});
    sink.emit({.cycle = 20,
               .component = Component::kChannel,
               .core = 0,
               .addr = 0,
               .kind = "probe",
               .outcome = "miss",
               .value = 300});
    sink.flush();
    sink.flush();  // idempotent close
  }
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\n]\n"), std::string::npos);  // closed exactly once
  EXPECT_NE(text.find("\"name\":\"evict:LLC\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"cache\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(text.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(text.find("\"dur\":300"), std::string::npos);
  // Exactly one separator between the two events, none trailing.
  EXPECT_EQ(std::count(text.begin(), text.end(), '['), 1);
}

TEST(TraceSinks, CollectingSinkCapsAndCountsDrops) {
  CollectingSink sink(2);
  for (int i = 0; i < 5; ++i)
    sink.emit({.cycle = static_cast<Cycles>(i), .kind = "k", .outcome = "o"});
  EXPECT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.dropped(), 3u);
  EXPECT_EQ(sink.events()[1].cycle, 1u);

  CollectingSink unbounded;
  for (int i = 0; i < 5; ++i) unbounded.emit({.kind = "k", .outcome = "o"});
  EXPECT_EQ(unbounded.events().size(), 5u);
  EXPECT_EQ(unbounded.dropped(), 0u);
}

TEST(TraceSinks, SamplingKeepsEveryNth) {
  CollectingSink inner;
  SamplingSink sampler(inner, 3);
  for (int i = 0; i < 10; ++i)
    sampler.emit({.cycle = static_cast<Cycles>(i), .kind = "k", .outcome = "o"});
  // First event always passes, then every 3rd: cycles 0, 3, 6, 9.
  ASSERT_EQ(inner.events().size(), 4u);
  EXPECT_EQ(inner.events()[0].cycle, 0u);
  EXPECT_EQ(inner.events()[3].cycle, 9u);
}

TEST(Hub, TracingRequiresASink) {
  Hub hub;
  EXPECT_FALSE(hub.tracing());
  CollectingSink sink;
  hub.set_trace_sink(&sink);
  EXPECT_EQ(hub.tracing(), kTracingCompiledIn);
  if (hub.tracing()) hub.trace({.kind = "k", .outcome = "o"});
  EXPECT_EQ(sink.events().size(), kTracingCompiledIn ? 1u : 0u);
  hub.set_trace_sink(nullptr);
  EXPECT_FALSE(hub.tracing());
}

TEST(TrialScope, AbsorbsAndNests) {
  EXPECT_EQ(TrialScope::current(), nullptr);
  CollectingSink sink;
  {
    TrialScope outer(&sink);
    EXPECT_EQ(TrialScope::current(), &outer);
    EXPECT_EQ(outer.trace_sink(), &sink);

    Registry registry;
    registry.counter("g", "a").inc(3);
    outer.absorb(registry);
    {
      TrialScope inner;
      EXPECT_EQ(TrialScope::current(), &inner);
      EXPECT_EQ(inner.trace_sink(), nullptr);
    }
    EXPECT_EQ(TrialScope::current(), &outer);

    // Absorbing twice sums — the fig6 two-machine case.
    outer.absorb(registry);
    EXPECT_EQ(snapshot_value(outer.counters(), "g.a"), 6u);
  }
  EXPECT_EQ(TrialScope::current(), nullptr);
}

}  // namespace
}  // namespace meecc::obs
