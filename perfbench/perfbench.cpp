// The repository benchmark: four enterprise-net workloads run through the
// public scenario:: / sweep:: API, with every result checked against a
// committed digest and the paper's shapes.
//
//   perfbench --workload <fig11_attack|fig11_baseline|flood_enterprise|campaign>
//             --seed <n> --seconds <s> --trace <0|1> --digests <file>
//             --workdir <dir> [--commit <id>] [--record-digests]
//
// --trace 0 times whole passes and prints the end-to-end metrics.
// --trace 1 prints the per-layer metrics: exact counts from the results
// and thread counters, replays of each layer's public hot functions on
// seeded inputs, and spans taken around the calls into each layer. The
// last line of standard output is always one JSON object (see README.md).
// The exit code is non-zero when any check fails.
#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attain/dsl/compiler.hpp"
#include "attain/dsl/parser.hpp"
#include "attain/inject/executor.hpp"
#include "common/alloc_hook.hpp"
#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "ofp/codec.hpp"
#include "ofp/match.hpp"
#include "packet/codec.hpp"
#include "packet/flow_key.hpp"
#include "scenario/enterprise.hpp"
#include "scenario/experiment.hpp"
#include "sim/scheduler.hpp"
#include "sweep/distributed.hpp"
#include "sweep/journal.hpp"
#include "swsim/flow_table.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace attain;
using namespace attain::scenario;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

const char* const kWorkloads[] = {"fig11_attack", "fig11_baseline", "flood_enterprise",
                                  "campaign"};

/// The Fig. 11 cell: Floodlight, iperf only, 5 x 3 s trials with 2 s gaps.
RunSpec fig11_cell(bool attack) {
  RunSpec spec;
  spec.experiment = ExperimentKind::FlowModSuppression;
  spec.controller = ControllerKind::Floodlight;
  spec.attack_enabled = attack;
  spec.ping_trials = 0;
  spec.iperf_trials = 5;
  spec.iperf_duration = 3 * kSecond;
  spec.iperf_gap = 2 * kSecond;
  return spec;
}

RunSpec flood_cell(ControllerKind controller, bool attack) {
  RunSpec spec;
  spec.experiment = ExperimentKind::Volumetric;
  spec.controller = controller;
  spec.attack_enabled = attack;
  spec.volumetric = VolumetricKind::PacketInFlood;
  spec.flood_flows = 16384;
  spec.flood_duration = 10 * kSecond;
  spec.flood_batch = 500 * kMillisecond;
  return spec;
}

/// Table II plus the late-arm Fig. 11 injection campaign (24 cells).
std::vector<RunSpec> campaign_grid() {
  std::vector<RunSpec> grid = table2_grid();
  for (RunSpec& spec : fig11_campaign_grid(
           {86 * kSecond, 88 * kSecond, 89 * kSecond, 91 * kSecond, 92 * kSecond},
           /*ping_trials=*/20, /*iperf_trials=*/8)) {
    grid.push_back(std::move(spec));
  }
  return grid;
}

sweep::DistributedOptions campaign_options(const std::string& workdir) {
  sweep::DistributedOptions options;
  options.workers = 2;
  options.warm_start = true;
  options.warm_tail_processes = 2;
  options.journal_path = workdir + "/campaign.journal";
  return options;
}

/// The cells one pass of a single-process workload runs, in canonical
/// order (the digest order).
std::vector<RunSpec> workload_cells(const std::string& workload) {
  if (workload == "fig11_attack") return {fig11_cell(true)};
  if (workload == "fig11_baseline") return {fig11_cell(false)};
  if (workload == "flood_enterprise") {
    return {flood_cell(ControllerKind::Pox, true), flood_cell(ControllerKind::Floodlight, true),
            flood_cell(ControllerKind::Ryu, true)};
  }
  return {};
}

/// The same cells with the attack flipped. The traced run times them for
/// the armed/unarmed per-event cost; the Fig. 11 workloads also run their
/// twin once to check the throughput ratio. Campaign cells run in worker
/// processes, so the campaign uses the Fig. 11 pair.
std::vector<RunSpec> twin_cells(const std::string& workload) {
  if (workload == "campaign") return {fig11_cell(true), fig11_cell(false)};
  std::vector<RunSpec> twins = workload_cells(workload);
  for (RunSpec& spec : twins) spec.attack_enabled = !spec.attack_enabled;
  return twins;
}

// ---------------------------------------------------------------------------
// Expected digests and checks
// ---------------------------------------------------------------------------

/// "<workload> <cell id> <hex digest>" lines; '#' starts a comment. Keyed
/// by "<workload> <cell id>".
std::map<std::string, std::string> load_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  std::map<std::string, std::string> digests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, id, hex;
    if (!(fields >> w >> id >> hex)) throw std::runtime_error("bad digest line: " + line);
    digests[w + " " + id] = hex;
  }
  return digests;
}

struct Checker {
  std::map<std::string, std::string> expected;
  bool record{false};
  std::vector<std::string> recorded;
  std::vector<std::string> failures;

  /// True when `digest` is the committed one for `id`.
  bool digest_ok(const std::string& workload, const std::string& id, std::uint64_t digest) {
    const std::string key = workload + " " + id;
    if (record) {
      const std::string line = key + " " + hex64(digest);
      if (std::find(recorded.begin(), recorded.end(), line) == recorded.end()) {
        recorded.push_back(line);
      }
      return true;
    }
    const auto it = expected.find(key);
    if (it == expected.end()) return fail("no committed digest for " + id);
    if (it->second != hex64(digest)) {
      return fail("digest mismatch for " + id + ": " + hex64(digest) + " != " + it->second);
    }
    return true;
  }

  bool fail(const std::string& what) {
    const bool seen = std::find(failures.begin(), failures.end(), what) != failures.end();
    if (!seen && failures.size() < 20) failures.push_back(what);
    return false;
  }
};

std::optional<double> throughput(const RunResult& result) {
  return dynamic_cast<const SuppressionResult&>(result).mean_throughput_mbps();
}

/// Paper-shape checks on one cell's result.
bool shape_ok(const RunSpec& spec, const RunResult& result, Checker& checker) {
  if (const auto* vol = dynamic_cast<const VolumetricResult*>(&result)) {
    if (vol->probe.sent() != 20 || vol->probe.received() != 20) {
      return checker.fail(spec.id() + ": probe answered " + std::to_string(vol->probe.received()) +
                          " of " + std::to_string(vol->probe.sent()));
    }
  }
  if (const auto* cut = dynamic_cast<const InterruptionResult*>(&result)) {
    if (cut->controller == ControllerKind::Ryu && cut->attack_reached_sigma3) {
      return checker.fail(spec.id() + ": Ryu reached sigma3");
    }
    if (cut->s2_fail_secure && cut->controller != ControllerKind::Ryu && cut->ext_to_int_t50) {
      return checker.fail(spec.id() + ": fail-secure ext->int at t=50 is not 'no'");
    }
  }
  return true;
}

/// Fig. 11: Floodlight under attack keeps under a fifth of the baseline.
bool fig11_ratio_ok(const RunResult& attack, const RunResult& baseline, Checker& checker) {
  const double a = throughput(attack).value_or(0.0);
  const double b = throughput(baseline).value_or(0.0);
  if (!(b > 0.0 && a < b / 5.0)) {
    return checker.fail("fig11 throughput ratio: attack " + std::to_string(a) +
                        " Mbps is not below a fifth of baseline " + std::to_string(b) + " Mbps");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Exact counts
// ---------------------------------------------------------------------------

struct Counts {
  std::uint64_t events{0};
  std::uint64_t interposed{0};
  std::uint64_t interposed_armed{0};  // in cells with a DSL attack armed
  std::uint64_t suppressed{0};
  std::uint64_t programs{0};
  std::uint64_t skipped{0};
  std::uint64_t codec_saved{0};
  std::uint64_t packet_ins{0};
  std::uint64_t flow_mods{0};
  std::uint64_t flow_mods_applied{0};
  std::uint64_t data_packets{0};
  std::uint64_t table_misses{0};
  std::uint64_t table_peak{0};

  void add(const RunResult& r) {
    events += r.events_executed;
    interposed += r.messages_interposed;
    suppressed += r.messages_suppressed;
    programs += r.programs_executed;
    skipped += r.rules_skipped_by_guard;
    codec_saved += r.codec_ops_saved;
    if (const auto* s = dynamic_cast<const SuppressionResult*>(&r)) {
      if (s->attack_enabled) interposed_armed += s->messages_interposed;
      packet_ins += s->packet_ins;
      flow_mods += s->flow_mods_observed;
      flow_mods_applied += s->flow_mods_observed - s->flow_mods_suppressed;
      data_packets += s->data_packets_delivered;
    } else if (const auto* v = dynamic_cast<const VolumetricResult*>(&r)) {
      packet_ins += v->packet_ins;
      flow_mods += v->flow_mods_observed;
      flow_mods_applied += v->flow_mods_observed;
      table_misses += v->table_misses;
      table_peak = std::max<std::uint64_t>(table_peak, v->table_entries_peak);
    } else if (r.attack_enabled) {
      interposed_armed += r.messages_interposed;
    }
  }

  std::string to_json() const {
    std::ostringstream o;
    o << "{\"events\":" << events << ",\"interposed\":" << interposed
      << ",\"suppressed\":" << suppressed << ",\"programs\":" << programs
      << ",\"skipped\":" << skipped << ",\"codec_saved\":" << codec_saved
      << ",\"packet_ins\":" << packet_ins << ",\"flow_mods\":" << flow_mods
      << ",\"data_packets\":" << data_packets << ",\"table_misses\":" << table_misses
      << ",\"table_peak\":" << table_peak << "}";
    return o.str();
  }
};

/// Thread-local counters of the calling thread, snapshotted around a pass.
struct ThreadCounters {
  std::uint64_t encodes{0};
  std::uint64_t decodes{0};
  std::uint64_t slab_allocs{0};
  std::uint64_t slab_hits{0};
  std::uint64_t heap_allocs{0};

  static ThreadCounters now() {
    const ofp::CodecOpCounters& codec = ofp::codec_ops();
    const mem::SlabPool::Stats& slab = mem::thread_slab().stats();
    return {codec.encodes, codec.decodes, slab.allocs, slab.freelist_hits, memhook::news()};
  }
  ThreadCounters operator-(const ThreadCounters& o) const {
    return {encodes - o.encodes, decodes - o.decodes, slab_allocs - o.slab_allocs,
            slab_hits - o.slab_hits, heap_allocs - o.heap_allocs};
  }
};

// ---------------------------------------------------------------------------
// One pass of a workload
// ---------------------------------------------------------------------------

struct Pass {
  double wall{0.0};
  double cpu{0.0};
  double setup{0.0};   // warm_up (cells) / grid + runner construction (campaign)
  double run{0.0};     // advance_to + finish (cells) / DistributedRunner::run
  double render{0.0};  // to_json + save_result + result_digest
  double cell_busy{0.0};
  std::size_t cells{0};
  std::size_t failed{0};
  Counts counts;
  ThreadCounters thread;
  std::uint64_t run_heap_allocs{0};  // global allocations inside advance_to + finish
  std::size_t warm_cells{0};
  std::size_t shared_warmups{0};
  std::size_t respawns{0};
  std::vector<RunResultPtr> results;  // canonical order
};

struct CellRun {
  RunResultPtr result;
  double setup{0.0};
  double run{0.0};
  double render{0.0};
  std::uint64_t digest{0};
  std::uint64_t run_heap_allocs{0};
};

/// One cell through the phased API: warm_up, advance_to + finish, then the
/// render (to_json, save_result, result_digest). A traced call also counts
/// the run's global allocations.
CellRun run_cell(const RunSpec& spec, bool traced) {
  CellRun c;
  const auto t0 = Clock::now();
  WarmupPhasePtr phase = warm_up(warmup_representative(spec));
  const auto t1 = Clock::now();
  const std::uint64_t news0 = traced ? memhook::news() : 0;
  phase->advance_to(fork_time(spec));
  c.result = phase->finish(spec);
  mem::run_boundary();
  if (traced) c.run_heap_allocs = memhook::news() - news0;
  const auto t2 = Clock::now();
  const std::string json = c.result->to_json();
  ByteWriter w;
  save_result(*c.result, w);
  c.digest = result_digest(*c.result);
  const auto t3 = Clock::now();
  if (json.empty() || w.size() == 0) throw std::runtime_error("empty render of " + spec.id());
  c.setup = std::chrono::duration<double>(t1 - t0).count();
  c.run = std::chrono::duration<double>(t2 - t1).count();
  c.render = std::chrono::duration<double>(t3 - t2).count();
  return c;
}

struct Bench {
  std::string workload;
  std::string workdir;
  Checker checker;
  Rng rng{1};
  // Fig. 11 workloads: the twin cell's result, for the throughput check.
  RunResultPtr fig11_twin;

  bool is_campaign() const { return workload == "campaign"; }

  Pass run_pass(bool traced) {
    Pass p;
    const ThreadCounters before = traced ? ThreadCounters::now() : ThreadCounters{};
    const double cpu0 = thread_cpu_seconds();
    const auto start = Clock::now();
    if (is_campaign()) {
      run_campaign_pass(p);
    } else {
      run_cells_pass(p, traced);
    }
    p.wall = since(start);
    p.cpu = thread_cpu_seconds() - cpu0;
    if (traced) p.thread = ThreadCounters::now() - before;
    return p;
  }

  void run_cells_pass(Pass& p, bool traced) {
    const std::vector<RunSpec> cells = workload_cells(workload);
    // The seed orders the cells within a pass; results land in canonical
    // order, so the digests do not depend on it.
    std::vector<std::size_t> order(cells.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    p.results.resize(cells.size());
    for (std::size_t i : order) {
      const RunSpec& spec = cells[i];
      CellRun c = run_cell(spec, traced);
      p.setup += c.setup;
      p.run += c.run;
      p.render += c.render;
      p.cell_busy += c.setup + c.run;
      p.run_heap_allocs += c.run_heap_allocs;
      ++p.cells;
      bool ok = checker.digest_ok(workload, spec.id(), c.digest);
      ok = shape_ok(spec, *c.result, checker) && ok;
      if (fig11_twin) {
        ok = (spec.attack_enabled ? fig11_ratio_ok(*c.result, *fig11_twin, checker)
                                  : fig11_ratio_ok(*fig11_twin, *c.result, checker)) &&
             ok;
      }
      if (!ok) ++p.failed;
      p.counts.add(*c.result);
      p.results[i] = std::move(c.result);
    }
  }

  void run_campaign_pass(Pass& p) {
    const auto t0 = Clock::now();
    const std::vector<RunSpec> grid = campaign_grid();
    const sweep::DistributedRunner runner(campaign_options(workdir));
    const auto t1 = Clock::now();
    const sweep::DistributedReport report = runner.run(grid);
    const auto t2 = Clock::now();
    const std::string merged = report.results_json();
    std::vector<std::uint64_t> digests;
    for (const sweep::CellOutcome& cell : report.sweep.cells) {
      digests.push_back(cell.result ? result_digest(*cell.result) : 0);
    }
    const auto t3 = Clock::now();
    p.setup = std::chrono::duration<double>(t1 - t0).count();
    p.run = std::chrono::duration<double>(t2 - t1).count();
    p.render = std::chrono::duration<double>(t3 - t2).count();
    p.warm_cells = report.sweep.warm_cells;
    p.shared_warmups = report.sweep.warm_groups;
    p.respawns = report.respawns;
    const bool merged_ok = checker.digest_ok(workload, "merged", fnv1a64(merged));
    for (std::size_t i = 0; i < report.sweep.cells.size(); ++i) {
      const sweep::CellOutcome& cell = report.sweep.cells[i];
      ++p.cells;
      p.cell_busy += cell.wall_seconds;
      bool ok = merged_ok;
      if (cell.status != sweep::CellStatus::Ok || !cell.result) {
        ok = checker.fail(cell.spec.id() + ": " + sweep::to_string(cell.status) + " " + cell.error);
      } else {
        ok = checker.digest_ok(workload, cell.spec.id(), digests[i]) && ok;
        ok = shape_ok(cell.spec, *cell.result, checker) && ok;
        p.counts.add(*cell.result);
        p.results.push_back(cell.result->clone());
      }
      if (!ok) ++p.failed;
    }
    if (report.sweep.cells.size() != grid.size()) {
      p.failed += grid.size() - std::min(grid.size(), report.sweep.cells.size());
      checker.fail("campaign returned " + std::to_string(report.sweep.cells.size()) + " cells");
    }
  }
};

// ---------------------------------------------------------------------------
// Replays: each layer's public hot function on seeded inputs
// ---------------------------------------------------------------------------

template <typename F>
double median_of(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(f());
  return median(v);
}

/// Scheduler::after + dispatch, ns per event: 64 chains of no-op tasks,
/// each rescheduling itself after a seeded delay, so the queue stays as
/// shallow as a cell's.
double replay_sim_event_ns(Rng& rng) {
  constexpr std::size_t kEvents = 500'000;
  constexpr std::size_t kChains = 64;
  std::vector<SimTime> delays(4096);
  for (SimTime& d : delays) d = static_cast<SimTime>(1 + rng.next_below(kMillisecond));
  struct Chains {
    sim::Scheduler* sched;
    const std::vector<SimTime>* delays;
    std::size_t issued{0};
    std::size_t fired{0};
    void step() {
      ++fired;
      if (issued < kEvents) {
        sched->after((*delays)[issued++ % delays->size()], [this] { step(); });
      }
    }
  };
  return median_of(5, [&] {
    sim::Scheduler sched;
    Chains chains{&sched, &delays};
    const auto t0 = Clock::now();
    for (; chains.issued < kChains; ++chains.issued) {
      sched.after(delays[chains.issued], [&chains] { chains.step(); });
    }
    sched.run();
    const double ns = since(t0) * 1e9 / static_cast<double>(chains.fired);
    if (chains.fired != kEvents) throw std::logic_error("scheduler replay lost events");
    return ns;
  });
}

pkt::Packet random_tcp_packet(Rng& rng) {
  // One draw per statement: argument evaluation order is unspecified.
  pkt::TcpHeader tcp;
  tcp.src_port = static_cast<std::uint16_t>(1024 + rng.next_below(60000));
  tcp.dst_port = static_cast<std::uint16_t>(1 + rng.next_below(1024));
  const auto src_mac = pkt::MacAddress::from_u64(1 + rng.next_below(1u << 24));
  const auto dst_mac = pkt::MacAddress::from_u64(1 + rng.next_below(1u << 24));
  const pkt::Ipv4Address src_ip{static_cast<std::uint32_t>(0x0a000000 + rng.next_below(1u << 24))};
  const pkt::Ipv4Address dst_ip{static_cast<std::uint32_t>(0x0a000000 + rng.next_below(1u << 24))};
  return pkt::make_tcp(src_mac, dst_mac, src_ip, dst_ip, tcp, 64, 0);
}

struct FlowTableReplay {
  double match_ns{0.0};
  double apply_ns{0.0};
};

/// FlowTable::apply of `entries` exact-match ADDs into an empty table, then
/// FlowTable::match_packet over seeded hits, ns per call.
FlowTableReplay replay_flow_table(Rng& rng, std::size_t entries) {
  std::vector<ofp::FlowMod> mods;
  std::vector<pkt::FlowKey> keys;
  for (std::size_t i = 0; i < entries; ++i) {
    const pkt::Packet packet = random_tcp_packet(rng);
    ofp::FlowMod mod;
    mod.match = ofp::Match::from_packet(packet, 1);
    mod.command = ofp::FlowModCommand::Add;
    mod.priority = 100;
    mod.cookie = i;
    mod.actions = ofp::output_to(std::uint16_t{2});
    mods.push_back(std::move(mod));
    keys.push_back(pkt::FlowKey::from_packet(packet, 1));
  }
  constexpr std::size_t kLookups = 200'000;
  std::vector<std::uint32_t> probe(kLookups);
  for (std::uint32_t& k : probe) k = static_cast<std::uint32_t>(rng.next_below(entries));

  FlowTableReplay r;
  std::vector<double> match, apply;
  for (int rep = 0; rep < 5; ++rep) {
    swsim::FlowTable table;
    const auto t0 = Clock::now();
    for (const ofp::FlowMod& mod : mods) table.apply(mod, 0);
    apply.push_back(since(t0) * 1e9 / static_cast<double>(entries));
    std::size_t hits = 0;
    const auto t1 = Clock::now();
    SimTime now = 0;
    for (std::uint32_t k : probe) hits += table.match_packet(keys[k], ++now, 64) != nullptr;
    match.push_back(since(t1) * 1e9 / kLookups);
    if (hits != kLookups || table.size() != entries) {
      throw std::logic_error("flow-table replay missed");
    }
  }
  r.match_ns = median(match);
  r.apply_ns = median(apply);
  return r;
}

ofp::Message sample_flow_mod(Rng& rng) {
  ofp::FlowMod mod;
  mod.match = ofp::Match::from_packet(random_tcp_packet(rng), 1);
  mod.idle_timeout = 10;
  mod.buffer_id = static_cast<std::uint32_t>(rng.next_below(1000));
  mod.actions = ofp::output_to(std::uint16_t{2});
  return ofp::make_message(static_cast<std::uint32_t>(rng.next_below(1u << 30)), std::move(mod));
}

ofp::Message sample_packet_in(Rng& rng) {
  ofp::PacketIn pin;
  pin.buffer_id = static_cast<std::uint32_t>(rng.next_below(1000));
  pin.in_port = 1;
  pin.data = pkt::encode(random_tcp_packet(rng));
  pin.total_len = static_cast<std::uint16_t>(pin.data.size());
  return ofp::make_message(static_cast<std::uint32_t>(rng.next_below(1u << 30)), std::move(pin));
}

ofp::Message sample_packet_out(Rng& rng) {
  ofp::PacketOut out;
  out.in_port = 1;
  out.actions = ofp::output_to(std::uint16_t{2});
  out.data = pkt::encode(random_tcp_packet(rng));
  return ofp::make_message(static_cast<std::uint32_t>(rng.next_below(1u << 30)), std::move(out));
}

using Sampler = ofp::Message (*)(Rng&);
const std::pair<const char*, Sampler> kCodecTypes[] = {
    {"flow_mod", sample_flow_mod},
    {"packet_in", sample_packet_in},
    {"packet_out", sample_packet_out}};

struct CodecReplay {
  double encode_ns[3]{};
  double decode_ns[3]{};
  double encode_mean() const { return (encode_ns[0] + encode_ns[1] + encode_ns[2]) / 3; }
  double decode_mean() const { return (decode_ns[0] + decode_ns[1] + decode_ns[2]) / 3; }
};

/// ofp::encode / ofp::decode per message type, ns per call.
CodecReplay replay_codec(Rng& rng) {
  constexpr std::size_t kMessages = 2'000;
  constexpr int kRounds = 10;
  CodecReplay r;
  for (int t = 0; t < 3; ++t) {
    std::vector<ofp::Message> msgs;
    std::vector<Bytes> wires;
    for (std::size_t i = 0; i < kMessages; ++i) {
      msgs.push_back(kCodecTypes[t].second(rng));
      wires.push_back(ofp::encode(msgs.back()));
    }
    r.encode_ns[t] = median_of(5, [&] {
      std::size_t bytes = 0;
      const auto t0 = Clock::now();
      for (int round = 0; round < kRounds; ++round) {
        for (const ofp::Message& m : msgs) bytes += ofp::encode(m).size();
      }
      const double ns = since(t0) * 1e9 / (kMessages * kRounds);
      if (bytes == 0) throw std::logic_error("encode replay produced nothing");
      return ns;
    });
    r.decode_ns[t] = median_of(5, [&] {
      std::size_t same = 0;
      const auto t0 = Clock::now();
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < kMessages; ++i) {
          same += ofp::decode(wires[i]).xid == msgs[i].xid;
        }
      }
      const double ns = since(t0) * 1e9 / (kMessages * kRounds);
      if (same != kMessages * kRounds) throw std::logic_error("decode replay mismatch");
      return ns;
    });
  }
  return r;
}

/// AttackExecutor::process with the Fig. 10 suppression attack armed, over
/// a seeded FLOW_MOD / PACKET_IN / PACKET_OUT mix on every enterprise
/// connection, ns per message.
double replay_inject_process_ns(Rng& rng) {
  const topo::SystemModel model = make_enterprise_model();
  const dsl::Document doc = dsl::parse_document(flow_mod_suppression_dsl(), model);
  const dsl::CompiledAttack attack = dsl::compile(doc.attacks.at(0), model, doc.capabilities);
  const EntityId c1 = model.require("c1");
  const EntityId switches[] = {model.require("s1"), model.require("s2"), model.require("s3"),
                               model.require("s4")};
  constexpr std::size_t kMessages = 30'000;
  std::vector<lang::InFlightMessage> mix;
  for (std::size_t i = 0; i < kMessages; ++i) {
    const std::size_t type = rng.next_below(3);
    const ConnectionId conn{c1, switches[rng.next_below(4)]};
    lang::InFlightMessage msg;
    msg.connection = conn;
    msg.direction = type == 1 ? lang::Direction::SwitchToController
                              : lang::Direction::ControllerToSwitch;
    msg.source = type == 1 ? conn.sw : conn.controller;
    msg.destination = type == 1 ? conn.controller : conn.sw;
    msg.timestamp = static_cast<SimTime>(i);
    msg.id = i;
    msg.envelope = chan::Envelope(kCodecTypes[type].second(rng));
    (void)msg.payload();  // decoded view materialized, as the proxy hands it over
    mix.push_back(std::move(msg));
  }
  return median_of(5, [&] {
    monitor::Monitor monitor;
    monitor.set_counters_only(true);
    Rng exec_rng{1};
    inject::AttackExecutor exec(attack, doc.capabilities, monitor, exec_rng);
    std::size_t out = 0;
    const auto t0 = Clock::now();
    for (const lang::InFlightMessage& msg : mix) out += exec.process(msg).outgoing.size();
    const double ns = since(t0) * 1e9 / kMessages;
    if (out == 0 || out >= kMessages) throw std::logic_error("suppression replay did not suppress");
    return ns;
  });
}

/// mem::thread_slab() allocate + deallocate pairs of seeded sizes, ns per pair.
double replay_slab_ns(Rng& rng) {
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kRounds = 4'000;
  std::vector<std::size_t> sizes(kBatch * kRounds);
  for (std::size_t& s : sizes) s = 16 + rng.next_below(1008);
  return median_of(5, [&] {
    mem::SlabPool& slab = mem::thread_slab();
    void* held[kBatch];
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::size_t* s = &sizes[r * kBatch];
      for (std::size_t i = 0; i < kBatch; ++i) held[i] = slab.allocate(s[i]);
      for (std::size_t i = 0; i < kBatch; ++i) slab.deallocate(held[i], s[i]);
    }
    return since(t0) * 1e9 / static_cast<double>(sizes.size());
  });
}

/// save_result + load_result of every result, microseconds per result.
double replay_roundtrip_us(const std::vector<RunResultPtr>& results) {
  return median_of(5, [&] {
    const auto t0 = Clock::now();
    for (int round = 0; round < 20; ++round) {
      for (const RunResultPtr& r : results) {
        ByteWriter w;
        save_result(*r, w);
        ByteReader rd(w.bytes());
        if (load_result(rd)->events_executed != r->events_executed) {
          throw std::logic_error("result round trip diverged");
        }
      }
    }
    return since(t0) * 1e6 / (20.0 * static_cast<double>(results.size()));
  });
}

/// CampaignJournal::append of every result, microseconds per record.
double replay_journal_us(const std::vector<RunResultPtr>& results, const std::string& workdir) {
  std::vector<sweep::CellOutcome> outcomes(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    outcomes[i].status = sweep::CellStatus::Ok;
    outcomes[i].attempts = 1;
    outcomes[i].result = results[i]->clone();
  }
  const std::string path = workdir + "/replay.journal";
  const double us = median_of(5, [&] {
    sweep::CampaignJournal journal = sweep::CampaignJournal::create(path, 1, outcomes.size() * 20);
    const auto t0 = Clock::now();
    std::size_t index = 0;
    for (int round = 0; round < 20; ++round) {
      for (const sweep::CellOutcome& o : outcomes) {
        if (!journal.append(index++, o)) throw std::logic_error("journal refused a record");
      }
    }
    return since(t0) * 1e6 / static_cast<double>(index);
  });
  std::remove(path.c_str());
  return us;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o.precision(17);
  o << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) o << ", ";
    o << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
      << metrics[i].unit << "\"}";
  }
  o << "}";
  return o.str();
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

double peak_rss_mb(bool include_children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (include_children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kb += static_cast<double>(kids.ru_maxrss);
  }
  return kb / 1024.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string digests;
  std::string workdir{"."};
  std::string commit{"unknown"};
  bool record{false};
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() != "0";
    else if (flag == "--digests") a.digests = value();
    else if (flag == "--workdir") a.workdir = value();
    else if (flag == "--commit") a.commit = value();
    else if (flag == "--record-digests") a.record = true;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) == std::end(kWorkloads)) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.digests.empty() && !a.record) throw std::invalid_argument("--digests is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

/// The traced run's extra measurements, taken once after the first pass.
struct TraceExtras {
  double event_ns{0}, slab_ns{0}, process_ns{0}, roundtrip_us{0}, journal_us{0};
  FlowTableReplay table;
  CodecReplay codec;
  std::size_t slab_high_water{0};
  // Attribution base: op counts, thread counters and cell run time.
  Counts counts;
  ThreadCounters thread;
  double run_s{0};  // cold cell time behind `counts` (campaign only)
  std::uint64_t heap_allocs{0};
  double armed_s{0}, unarmed_s{0};
  std::uint64_t armed_events{0}, unarmed_events{0};
};

TraceExtras measure_extras(const Bench& bench, const Pass& first, std::uint64_t seed) {
  TraceExtras x;
  x.slab_high_water = mem::thread_slab().stats().high_water;
  Rng rng{seed ^ 0x5eedULL};
  x.event_ns = replay_sim_event_ns(rng);
  x.table = replay_flow_table(rng, std::max<std::uint64_t>(first.counts.table_peak, 64));
  x.codec = replay_codec(rng);
  x.process_ns = replay_inject_process_ns(rng);
  x.slab_ns = replay_slab_ns(rng);
  x.roundtrip_us = replay_roundtrip_us(first.results);
  x.journal_us = replay_journal_us(first.results, bench.workdir);

  // The campaign's cells run in forked workers, so its op counts and
  // thread counters come from one cold, serial, in-process sweep.
  if (bench.is_campaign()) {
    sweep::SweepOptions serial;
    serial.threads = 1;
    const ThreadCounters before = ThreadCounters::now();
    const sweep::SweepReport cold = sweep::SweepRunner(serial).run(campaign_grid());
    x.thread = ThreadCounters::now() - before;
    x.heap_allocs = x.thread.heap_allocs;
    for (const sweep::CellOutcome& cell : cold.cells) {
      if (!cell.result) throw std::runtime_error("cold campaign cell failed: " + cell.error);
      x.run_s += cell.wall_seconds;
      x.counts.add(*cell.result);
    }
  }

  // Per-event cost with the attack armed and unarmed, over the workload's
  // cells and their twins as whole runs: the pre-arm slice of these cells
  // holds almost no events (switches connect after the arm time).
  std::vector<RunSpec> cells = twin_cells(bench.workload);
  for (const RunSpec& spec : workload_cells(bench.workload)) cells.push_back(spec);
  for (const RunSpec& spec : cells) {
    const CellRun c = run_cell(spec, /*traced=*/true);
    (spec.attack_enabled ? x.armed_s : x.unarmed_s) += c.run;
    (spec.attack_enabled ? x.armed_events : x.unarmed_events) += c.result->events_executed;
  }
  return x;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> per_layer_metrics(const Bench& bench, const std::vector<Pass>& plain,
                                      const std::vector<Pass>& traced, const TraceExtras& x) {
  std::vector<double> plain_walls, traced_walls, build, run, render, busy;
  for (const Pass& p : plain) plain_walls.push_back(p.wall);
  for (const Pass& p : traced) {
    traced_walls.push_back(p.wall);
    build.push_back(p.setup);
    run.push_back(p.run);
    render.push_back(p.render);
    busy.push_back(p.cell_busy / (p.wall * (bench.is_campaign() ? 2.0 : 1.0)));
  }
  const Pass& last = traced.back();
  const bool campaign = bench.is_campaign();
  const Counts& counts = campaign ? x.counts : last.counts;
  const ThreadCounters& thread = campaign ? x.thread : last.thread;
  const double run_s = campaign ? x.run_s : median(run);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  struct Term {
    const char* layer;
    double seconds;
  };
  const Term terms[] = {
      {"sim", x.event_ns * 1e-9 * d(counts.events)},
      {"swsim", (x.table.apply_ns * d(counts.flow_mods_applied) +
                 x.table.match_ns * d(counts.table_misses)) * 1e-9},
      {"inject", x.process_ns * 1e-9 * d(counts.interposed_armed)},
      {"ofp", (x.codec.encode_mean() * d(thread.encodes) +
               x.codec.decode_mean() * d(thread.decodes)) * 1e-9},
      {"mem", x.slab_ns * 1e-9 * d(thread.slab_allocs)},
  };
  double attributed = 0.0;
  std::printf("attribution of scenario.run_s = %.6f s (replayed cost x exact count):\n", run_s);
  for (const Term& t : terms) {
    attributed += t.seconds;
    std::printf("  %-12s %10.6f s  %6.1f%%\n", t.layer, t.seconds, 100.0 * ratio(t.seconds, run_s));
  }
  std::printf("  %-12s %10.6f s  %6.1f%%\n", "unattributed", run_s - attributed,
              100.0 * ratio(run_s - attributed, run_s));

  return {
      {"sim.events", d(counts.events), "count"},
      {"sim.events_per_s", ratio(d(counts.events), run_s), "1/s"},
      {"sim.event_ns", x.event_ns, "ns"},
      {"swsim.table_misses", d(counts.table_misses), "count"},
      {"swsim.table_entries_peak", d(counts.table_peak), "count"},
      {"swsim.match_ns", x.table.match_ns, "ns"},
      {"swsim.apply_ns", x.table.apply_ns, "ns"},
      {"chan.messages_interposed", d(counts.interposed), "count"},
      {"inject.messages_suppressed", d(counts.suppressed), "count"},
      {"inject.process_ns", x.process_ns, "ns"},
      {"lang.programs_executed", d(counts.programs), "count"},
      {"lang.rules_skipped_by_guard", d(counts.skipped), "count"},
      {"lang.guard_skip_ratio", ratio(d(counts.skipped), d(counts.skipped + counts.programs)),
       "ratio"},
      {"ofp.codec_ops", d(thread.encodes + thread.decodes), "count"},
      {"ofp.codec_ops_saved", d(counts.codec_saved), "count"},
      {"ofp.encode_ns.flow_mod", x.codec.encode_ns[0], "ns"},
      {"ofp.encode_ns.packet_in", x.codec.encode_ns[1], "ns"},
      {"ofp.encode_ns.packet_out", x.codec.encode_ns[2], "ns"},
      {"ofp.decode_ns.flow_mod", x.codec.decode_ns[0], "ns"},
      {"ofp.decode_ns.packet_in", x.codec.decode_ns[1], "ns"},
      {"ofp.decode_ns.packet_out", x.codec.decode_ns[2], "ns"},
      {"ctl.packet_ins", d(counts.packet_ins), "count"},
      {"ctl.flow_mods", d(counts.flow_mods), "count"},
      {"dpl.data_packets", d(counts.data_packets), "count"},
      {"mem.slab_allocs", d(thread.slab_allocs), "count"},
      {"mem.slab_freelist_hit_ratio", ratio(d(thread.slab_hits), d(thread.slab_allocs)), "ratio"},
      {"mem.slab_high_water_bytes", d(x.slab_high_water), "bytes"},
      {"mem.slab_alloc_ns", x.slab_ns, "ns"},
      {"mem.heap_allocs", d(campaign ? x.heap_allocs : last.run_heap_allocs), "count"},
      {"scenario.build_s", median(build), "s"},
      {"scenario.run_s", run_s, "s"},
      {"scenario.render_s", median(render), "s"},
      {"scenario.unarmed_ns_per_event", ratio(x.unarmed_s * 1e9, d(x.unarmed_events)), "ns"},
      {"scenario.armed_ns_per_event", ratio(x.armed_s * 1e9, d(x.armed_events)), "ns"},
      {"sweep.busy_ratio", median(busy), "ratio"},
      {"sweep.respawns", d(last.respawns), "count"},
      {"sweep.journal_append_us", x.journal_us, "us"},
      {"snap.warm_cells", d(last.warm_cells), "count"},
      {"snap.shared_warmups", d(last.shared_warmups), "count"},
      {"snap.result_roundtrip_us", x.roundtrip_us, "us"},
      {"trace.attributed_ratio", ratio(attributed, run_s), "ratio"},
      {"trace.unattributed_s", run_s - attributed, "s"},
      {"trace.overhead_ratio", ratio(median(traced_walls), median(plain_walls)), "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(argc, argv);
  Bench bench;
  bench.workload = args.workload;
  bench.workdir = args.workdir;
  bench.rng = Rng{args.seed * 0x9e3779b97f4a7c15ULL + 1};
  bench.checker.record = args.record;
  if (!args.record) bench.checker.expected = load_digests(args.digests);

  std::printf("perfbench %s  seed %llu  seconds %g  trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("env: nproc %u, build %s, compiler g++ %s, commit %s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, __VERSION__,
              args.commit.c_str());

  std::size_t attempted = 0;
  std::size_t failed = 0;

  // Fig. 11 twin: run once, checked against the other Fig. 11 workload's
  // digest, and kept for the throughput-ratio check of every pass.
  if (args.workload == "fig11_attack" || args.workload == "fig11_baseline") {
    const RunSpec twin = twin_cells(args.workload).front();
    CellRun c = run_cell(twin, /*traced=*/false);
    ++attempted;
    const std::string twin_workload = twin.attack_enabled ? "fig11_attack" : "fig11_baseline";
    if (!bench.checker.digest_ok(twin_workload, twin.id(), c.digest)) ++failed;
    bench.fig11_twin = std::move(c.result);
  }

  // setup_s is the median over passes: each pass sets up its cells anew.
  std::vector<double> setups;

  // Timed passes for --seconds, the traced run's extra measurements
  // included. The traced run alternates plain passes (the overhead base)
  // with traced ones. Every pass must repeat the first pass's exact counts.
  std::vector<Pass> plain, traced;
  std::string first_counts;
  const auto start = Clock::now();
  const auto run_one = [&](bool trace_this) {
    Pass p = bench.run_pass(trace_this);
    attempted += p.cells;
    failed += p.failed;
    const std::string counts = p.counts.to_json();
    if (first_counts.empty()) first_counts = counts;
    if (counts != first_counts) {
      bench.checker.fail("exact counts differ between passes: " + counts + " vs " + first_counts);
      failed += p.cells;
    }
    if (args.trace) std::printf("pass-counts %s\n", counts.c_str());
    std::fprintf(stderr, "pass %zu%s wall %.6f s cpu %.6f s\n", plain.size() + traced.size(),
                 trace_this ? " (traced)" : "", p.wall, p.cpu);
    setups.push_back(p.setup);
    (trace_this ? traced : plain).push_back(std::move(p));
  };
  run_one(false);
  if (args.record) {
    for (const std::string& line : bench.checker.recorded) std::printf("%s\n", line.c_str());
    return 0;
  }
  TraceExtras extras;
  if (args.trace) {
    extras = measure_extras(bench, plain.front(), args.seed);
    if (bench.is_campaign() && extras.counts.to_json() != first_counts) {
      bench.checker.fail("cold campaign counts differ from the warm passes");
      failed += plain.front().cells;
    }
  }
  const std::size_t min_passes = args.trace ? 4 : 3;
  while (plain.size() + traced.size() < min_passes || since(start) < args.seconds) {
    run_one(args.trace && plain.size() > traced.size());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = per_layer_metrics(bench, plain, traced, extras);
  } else {
    std::vector<double> walls;
    for (const Pass& p : plain) walls.push_back(p.wall);
    const std::size_t n = walls.size();
    // Highest percentile with at least ten samples above it.
    const std::size_t above = (1000 + n - 1) / n;
    std::printf("wall_s: %zu samples; highest supported percentile: %s\n", n,
                n >= 20 ? ("p" + std::to_string(100 - above)).c_str()
                        : "none above the median (fewer than 20 samples)");
    const double tried = static_cast<double>(attempted);
    std::printf("fail_ratio: %g (%zu failed of %zu attempted cells)\n",
                ratio(static_cast<double>(failed), tried), failed, attempted);
    metrics = {
        {"wall_s", median(walls), "s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(bench.is_campaign()), "MB"},
        {"pass_ratio", ratio(static_cast<double>(attempted - failed), tried), "ratio"},
    };
  }

  std::printf("%s metrics (%s):\n", args.trace ? "per-layer" : "end-to-end", args.workload.c_str());
  print_table(metrics);
  for (const std::string& f : bench.checker.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = failed == 0 && bench.checker.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics_json(metrics).c_str());
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench: %s\n", e.what());
  return 2;
}
