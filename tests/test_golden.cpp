// Committed result goldens: each grid's SweepRunner::results_json() must
// equal its file under tests/golden/ byte for byte. The files pin what the
// paper's Table II and Fig. 11 grids and the batch-path regression cells
// actually output, so a change that moves every execution path the same way
// still fails here.
//
// On a mismatch (or a missing file) the actual document is written to
// golden_actual/<name>.json in the working directory. tools/regen_goldens.py
// is the only sanctioned way to copy those over the committed files.
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "dpl/iperf.hpp"
#include "dpl/ping.hpp"
#include "scenario/enterprise.hpp"
#include "scenario/experiment.hpp"
#include "scenario/run.hpp"
#include "sweep/sweep.hpp"
#include "topo/generators.hpp"

namespace attain {
namespace {

using scenario::ControllerKind;
using scenario::ExperimentKind;
using scenario::GridBuilder;
using scenario::RunSpec;
using scenario::VolumetricKind;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_actual(const std::string& name, const std::string& document) {
  std::error_code ec;
  std::filesystem::create_directories("golden_actual", ec);
  std::ofstream(std::filesystem::path("golden_actual") / (name + ".json"), std::ios::binary)
      << document;
}

/// Compares `document` with tests/golden/<name>.json; names the first
/// differing byte with some context instead of dumping both documents.
::testing::AssertionResult matches_golden(const std::string& name, const std::string& document) {
  const std::filesystem::path path = std::filesystem::path(ATTAIN_GOLDEN_DIR) / (name + ".json");
  const std::string expected = read_file(path);
  if (document == expected) return ::testing::AssertionSuccess();
  write_actual(name, document);
  if (expected.empty()) {
    return ::testing::AssertionFailure() << path << " is missing or empty";
  }
  std::size_t at = 0;
  while (at < document.size() && at < expected.size() && document[at] == expected[at]) ++at;
  const std::size_t from = at < 80 ? 0 : at - 80;
  return ::testing::AssertionFailure()
         << name << " differs from " << path << " at byte " << at << " (sizes "
         << document.size() << " vs " << expected.size() << ")\n  actual: ..."
         << document.substr(from, 160) << "\n  golden: ..." << expected.substr(from, 160);
}

/// Runs `grid` at each thread count and diffs every document against the
/// golden.
void expect_golden(const std::string& name, const std::vector<RunSpec>& grid,
                   std::initializer_list<unsigned> thread_counts) {
  for (const unsigned threads : thread_counts) {
    sweep::SweepOptions options;
    options.threads = threads;
    const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);
    ASSERT_EQ(report.ok(), grid.size()) << name;
    EXPECT_TRUE(matches_golden(name, report.results_json() + "\n")) << threads << " thread(s)";
  }
}

TEST(Golden, Table2) { expect_golden("table2", scenario::table2_grid(), {2}); }

TEST(Golden, Fig11) { expect_golden("fig11", scenario::fig11_grid(), {2}); }

// Storm regression cell: every shipped controller floods with OFPP_FLOOD,
// which storms on the loopy fat-tree(4), so these cells pin the batch
// ingress under a broadcast storm rather than the attack's effect. The
// 1-vs-4-thread runs pin the sweep's thread-count invariance as well.
TEST(Golden, StormPoxFloodAndSlowRate) {
  const std::vector<RunSpec> grid =
      GridBuilder()
          .volumetric(VolumetricKind::PacketInFlood)
          .volumetric(VolumetricKind::SlowRate)
          .controllers({ControllerKind::Pox})
          .topology(topo::TopologySpec::fat_tree(4))
          .flood(/*flows=*/32, /*duration=*/2 * kSecond, /*batch=*/500 * kMillisecond)
          .build();
  expect_golden("storm_pox_flood_slowrate", grid, {1, 4});
}

// The armed path: POX suppression drives the injector's executor, pinning
// the guard-skip plan's counter mirror (messages_interposed,
// rules_skipped_by_guard, MessageForwarded tallies).
TEST(Golden, PoxSuppressionArmed) {
  RunSpec spec;
  spec.experiment = ExperimentKind::FlowModSuppression;
  spec.controller = ControllerKind::Pox;
  spec.attack_enabled = true;
  spec.ping_trials = 2;
  spec.iperf_trials = 0;
  expect_golden("pox_suppression_armed", {spec}, {1});
}

// Storm regression cell: a capacity-64 table on the same storming fabric, so
// FLOW_MOD rejections and ALL_TABLES_FULL errors cross the batch path.
TEST(Golden, StormFloodlightTableOverflow) {
  const std::vector<RunSpec> grid =
      GridBuilder()
          .volumetric(VolumetricKind::TableOverflow)
          .controllers({ControllerKind::Floodlight})
          .topology(topo::TopologySpec::fat_tree(4))
          .flood(/*flows=*/32, /*duration=*/2 * kSecond, /*batch=*/500 * kMillisecond)
          .table_capacity(64)
          .build();
  expect_golden("storm_floodlight_table_overflow", grid, {1});
}

/// Compact form of a full event log: event counts per kind and per (kind,
/// message type), the summed `length`, and an FNV-1a digest over every
/// field of every event in log order.
std::string event_log_summary(const monitor::Monitor& monitor) {
  std::map<std::string, std::uint64_t> per_kind;
  std::map<std::string, std::uint64_t> per_kind_type;
  std::uint64_t length_sum = 0;
  ByteWriter fields;
  auto put_string = [&fields](const std::string& s) {
    fields.u32(static_cast<std::uint32_t>(s.size()));
    fields.raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  };
  for (const monitor::Event& event : monitor.events()) {
    const std::string kind = monitor::to_string(event.kind);
    ++per_kind[kind];
    ++per_kind_type[kind + "/" +
                    (event.message_type ? ofp::to_string(*event.message_type) : "-")];
    length_sum += event.length;
    fields.u8(static_cast<std::uint8_t>(event.kind));
    fields.u64(static_cast<std::uint64_t>(event.time));
    fields.u8(static_cast<std::uint8_t>(event.connection.controller.kind));
    fields.u32(event.connection.controller.index);
    fields.u8(static_cast<std::uint8_t>(event.connection.sw.kind));
    fields.u32(event.connection.sw.index);
    fields.u8(static_cast<std::uint8_t>(event.direction));
    fields.u64(event.message_id);
    fields.u8(event.message_type ? 1 : 0);
    fields.u8(event.message_type ? static_cast<std::uint8_t>(*event.message_type) : 0);
    fields.u64(event.length);
    put_string(event.rule);
    put_string(event.state);
    put_string(event.detail);
  }
  JsonWriter w;
  w.begin_object();
  w.field("events", static_cast<std::uint64_t>(monitor.events().size()));
  w.key("per_kind").begin_object();
  for (const auto& [kind, n] : per_kind) w.field(kind, n);
  w.end_object();
  w.key("per_kind_type").begin_object();
  for (const auto& [kind_type, n] : per_kind_type) w.field(kind_type, n);
  w.end_object();
  w.field("length_sum", length_sum);
  w.field("fnv1a", std::to_string(fnv1a64(fields.bytes())));
  w.end_object();
  return w.str();
}

// The full-event monitor path: every other golden runs counters-only
// monitors, so this one pins the stored MessageObserved / MessageForwarded /
// MessageDropped events, their lengths and ids, on a short armed Fig. 11
// Floodlight suppression cell (3 pings, one 1 s iperf trial).
TEST(Golden, FullEventMonitorSuppression) {
  scenario::TestbedOptions options;
  options.controller = ControllerKind::Floodlight;
  options.monitor_counters_only = false;
  scenario::Testbed bed(scenario::make_enterprise_model(), options);
  bed.arm_attack_at(seconds(5), scenario::flow_mod_suppression_dsl());
  bed.connect_switches_at(seconds(6));
  dpl::PingApp ping(bed.host("h1"), bed.host("h6").ip(), /*icmp_id=*/100);
  bed.scheduler().at(seconds(30), [&ping] { ping.start(3); });
  dpl::IperfServer server(bed.host("h6"), 5001);
  dpl::IperfClientConfig client_config;
  client_config.server_port = 5001;
  client_config.client_port = 50000;
  dpl::IperfClient client(bed.host("h1"), bed.host("h6").ip(), client_config);
  bed.scheduler().at(seconds(35), [&client] { client.start(1 * kSecond); });
  bed.run_until(seconds(38));

  ASSERT_GT(bed.monitor().count(monitor::EventKind::MessageDropped), 0u);
  EXPECT_TRUE(matches_golden("full_event_monitor_suppression",
                             event_log_summary(bed.monitor()) + "\n"));
}

}  // namespace
}  // namespace attain
