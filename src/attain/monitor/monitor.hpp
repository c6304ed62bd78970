// Monitors (Fig. 7, §VI-B3): the framework-side recording of control-plane
// events — every interposed message, rule actuations, state transitions,
// injections, and SYSCMD invocations. Practitioners read the event log (or
// its counters) after a run; the experiment harness builds the paper's
// metrics from it. The monitor is test infrastructure and is not subject
// to the attacker capability model (which constrains only attack rules).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "attain/lang/value.hpp"
#include "common/arena.hpp"
#include "ofp/constants.hpp"

namespace attain::monitor {

enum class EventKind : std::uint8_t {
  MessageObserved,   // proxy saw a message (before rules)
  MessageForwarded,  // proxy delivered a message
  MessageDropped,    // removed from the outgoing list
  MessageDelayed,
  MessageDuplicated,
  MessageModified,
  MessageFuzzed,
  MessageInjected,
  MessageRedirected,
  RuleMatched,       // a conditional evaluated TRUE
  StateTransition,   // GoToState took effect
  ActionExecuted,
  SysCmd,
  EvalError,         // a conditional/action raised (treated as no-match)
  ConnectionAttached,
};

std::string to_string(EventKind kind);

/// Slab-backed event log storage (common/arena.hpp): the log grows during a
/// run and is torn down wholesale with the testbed, so its pages recycle
/// across sweep cells instead of churning the general heap.
struct Event {
  EventKind kind{EventKind::MessageObserved};
  SimTime time{0};
  ConnectionId connection;
  lang::Direction direction{lang::Direction::SwitchToController};
  std::uint64_t message_id{0};
  std::optional<ofp::MsgType> message_type;  // absent for TLS/undecodable
  std::size_t length{0};
  std::string rule;    // rule name, when applicable
  std::string state;   // attack state, when applicable
  std::string detail;  // free-form annotation
};

class Monitor {
 public:
  void record(Event event);

  using EventList = std::vector<Event, mem::SlabAllocator<Event>>;

  const EventList& events() const { return events_; }
  void clear();

  /// Number of events of a kind.
  std::uint64_t count(EventKind kind) const;
  /// Number of observed messages of an OpenFlow type (across connections).
  std::uint64_t observed_of_type(ofp::MsgType type) const;
  /// Observed messages on one connection, one direction.
  std::uint64_t observed_on(ConnectionId connection, lang::Direction direction) const;

  /// Events matching a predicate (convenience for tests/analysis).
  std::vector<Event> select(const std::function<bool(const Event&)>& predicate) const;

  /// Keep only counters, not the full event list (for long benchmark runs).
  void set_counters_only(bool counters_only) { counters_only_ = counters_only; }

  /// True when record() would store a full Event of this kind. When false,
  /// callers skip building the string-heavy Event and call tally() instead
  /// — same counters, none of the allocation. MessageObserved is always
  /// "enabled" because its type/direction fields feed dedicated counters
  /// even in counters-only mode.
  bool enabled(EventKind kind) const {
    return !counters_only_ || kind == EventKind::MessageObserved;
  }

  /// Counter-only fast path: counts the kind without storing an event.
  /// Pairs with enabled() so kind counts match the record() path exactly.
  void tally(EventKind kind, std::uint64_t n = 1) { kind_counts_[kind] += n; }

  bool counters_only() const { return counters_only_; }

  /// Counter-only mirror of a MessageObserved record(): bumps the kind,
  /// type, and per-connection counters exactly as record() would, without
  /// building the string-heavy Event. The channel's monitor tap calls this
  /// once per frame; only valid while counters_only() is true (otherwise
  /// the event list would diverge from the record() path).
  void tally_observed(std::optional<ofp::MsgType> type, ConnectionId connection,
                      lang::Direction direction) {
    ++kind_counts_[EventKind::MessageObserved];
    if (type) ++type_counts_[*type];
    ++conn_counts_[{connection, direction}];
  }

  /// Renders the log as text, one event per line.
  std::string to_text(std::size_t max_events = 0) const;

  /// Renders the log as CSV (header + one row per event) for offline
  /// analysis — the tcpdump-equivalent artifact of the paper's monitors.
  std::string to_csv() const;

 private:
  EventList events_;
  mem::map<EventKind, std::uint64_t> kind_counts_;
  mem::map<ofp::MsgType, std::uint64_t> type_counts_;
  mem::map<std::pair<ConnectionId, lang::Direction>, std::uint64_t> conn_counts_;
  bool counters_only_{false};
};

}  // namespace attain::monitor
