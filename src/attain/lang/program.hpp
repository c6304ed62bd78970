// Compiled form of a conditional expression: a flat instruction vector run
// by a tight stack loop, plus a guard prefilter derived from the paths the
// expression touches.
//
// The tree-walk in conditional.cpp stays as the semantic oracle (as the
// linear-scan NaiveFlowTable in tests/ is for swsim::FlowTable); this is
// the hot path the injector runs for every rule on every interposed
// message. Three things make it cheap:
//
//   * compilation interns every dotted field path to an ofp::FieldId and
//     every deque name to a DequeStore slot, so evaluation never parses a
//     string or hashes a map;
//   * evaluation reports failures as an ExecStatus instead of throwing —
//     the steady-state "rule's field is absent on this message type" case
//     costs a status code, not a thrown-and-caught EvalError;
//   * the per-rule Guard (required message-type set x direction x
//     decodability) lets the executor skip a whole rule with one bitmask
//     test, before any program runs.
//
// Equivalence contract with the oracle: for every (expression, context),
// run_bool() returns Ok with the same boolean evaluate_bool() returns, or a
// non-Ok status whose error_detail() equals the EvalError/StorageError
// message the tree throws; RNG draws happen in the same order, so replays
// stay byte-identical (enforced by tests/test_program_differential.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attain/lang/conditional.hpp"
#include "ofp/fields.hpp"

namespace attain::lang {

/// Evaluation outcome of a compiled program. Every non-Ok value maps to
/// exactly one tree-walk exception (see ProgramEvaluator::error_detail).
enum class ExecStatus : std::uint8_t {
  Ok,
  NoMessage,          // "no message in evaluation context"
  PayloadUnreadable,  // TLS or undecodable frame
  FieldAbsent,        // message type has no such field
  NoStorage,          // "no storage in evaluation context"
  DequeUndeclared,
  DequeEmpty,
  NoRng,
  BadRandomBound,
  TypeMismatch,  // non-integer operand to ordering/arithmetic
  NotBoolean,    // non-integer value in boolean position
  BadProgram,    // empty/corrupt program (never produced by compile())
};

std::string to_string(ExecStatus status);

/// Message-shape prefilter: a sound over-approximation of the contexts in
/// which the compiled conditional can evaluate to true. If admits() is
/// false the rule can only evaluate false or raise, so the executor skips
/// it without running the program (and without the RNG-stream side effects
/// rand() would have — expressions containing rand() always get a
/// pass-everything guard).
struct Guard {
  static constexpr std::uint32_t kAllTypes = (1u << 20) - 1;  // MsgType 0..19

  std::uint32_t type_mask{kAllTypes};
  std::uint8_t direction_mask{0b11};  // bit 1 << static_cast<int>(Direction)
  bool undecodable_ok{true};          // admit sealed/unparseable payloads?

  bool admits(const InFlightMessage& msg) const {
    if ((direction_mask & (1u << static_cast<unsigned>(msg.direction))) == 0) return false;
    const ofp::Message* payload = msg.payload();
    if (payload == nullptr) return undecodable_ok;
    return (type_mask >> static_cast<unsigned>(payload->type())) & 1u;
  }

  bool pass_all() const {
    return type_mask == kAllTypes && direction_mask == 0b11 && undecodable_ok;
  }
};

/// One instruction. `a` indexes a side table (constant pool, deque refs,
/// FieldId, Property); `imm` holds integer literals, rand() bounds, set
/// sizes, and jump targets.
struct Instr {
  enum class Op : std::uint8_t {
    PushInt,         // push imm
    PushConst,       // push pool[a] by reference
    PushProp,        // push property a of the current message
    PushField,       // push field FieldId(a) of the payload
    PushBadField,    // a path no message type has: bad_fields_[a]; always fails
    PushDequeFront,  // deques_[a]
    PushDequeEnd,
    PushDequeLen,
    PushRandom,    // imm = bound
    Not,           // pop as bool, push negation
    ToBool,        // pop as bool, push 0/1
    JumpIfFalse,   // AND probe: pop as bool; false -> push 0, jump imm
    JumpIfTrue,    // OR probe: pop as bool; true -> push 1, jump imm
    Eq,            // pop b, pop a, push value_equals(a, b)
    Ne,
    Lt,            // pop b, pop a, integers only
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    InSet,         // pop a, push membership in pool[a .. a+imm)
  };

  Op op{Op::PushInt};
  std::uint16_t a{0};
  std::int64_t imm{0};
};

class ProgramEvaluator;

class Program {
 public:
  /// Compile-time name environment. deque_names lists the attack's deque
  /// declarations in declaration order — the same order AttackExecutor
  /// declares them into its DequeStore, so list index == store slot. A
  /// referenced name absent from the list compiles to a program that fails
  /// with DequeUndeclared at run time, like the tree.
  struct CompileEnv {
    const std::vector<std::string>* deque_names{nullptr};
  };

  Program() = default;

  /// Lowers an expression. Interns field paths and deque names, constant-
  /// folds literal subtrees (a fully literal conditional becomes a single
  /// PushInt), and derives the guard. Never throws: expressions that can
  /// only fail (unknown field path, undeclared deque) compile to programs
  /// that report the failure as a status, preserving oracle semantics.
  static Program compile(const Expr& expr, const CompileEnv& env);
  static Program compile(const Expr& expr) { return compile(expr, CompileEnv{}); }

  /// True for a default-constructed Program (e.g. an action slot with no
  /// expression operand). compile() always yields at least one instruction.
  bool empty() const { return code_.empty(); }

  const Guard& guard() const { return guard_; }
  const std::vector<Instr>& code() const { return code_; }
  std::size_t max_stack() const { return max_stack_; }

  /// Human-readable listing, one instruction per line (tests, debugging).
  std::string disassemble() const;

 private:
  friend class ProgramEvaluator;
  friend struct ProgramBuilder;  // the compilation pass (program.cpp)

  struct DequeRef {
    std::string name;                                       // diagnostics
    std::size_t slot{static_cast<std::size_t>(-1)};         // -1: undeclared
  };

  std::vector<Instr> code_;
  std::vector<Value> pool_;         // non-integer literals and InSet members
  std::vector<DequeRef> deques_;
  std::vector<std::string> bad_fields_;  // unknown paths, kept for messages
  Guard guard_;
  std::uint16_t max_stack_{0};
};

/// Runs programs against an EvalContext with a reusable scratch stack: after
/// warm-up, evaluation performs no heap allocation and throws nothing. One
/// evaluator per executor; not thread-safe (neither is the executor).
class ProgramEvaluator {
 public:
  /// Evaluates as a rule conditional (the oracle's evaluate_bool). On Ok,
  /// `out` holds the boolean; on failure the status/error state sticks
  /// until the next run for error_detail().
  ExecStatus run_bool(const Program& program, const EvalContext& ctx, bool& out);

  /// Evaluates as a value-producing operand (the oracle's evaluate), for
  /// action operands like modify(msg, field, <expr>).
  ExecStatus run_value(const Program& program, const EvalContext& ctx, Value& out);

  /// The oracle-compatible message for the last non-Ok run: byte-for-byte
  /// what evaluate()/evaluate_bool() would have put in the thrown
  /// exception's what(). `ctx` must be the context of that run.
  std::string error_detail(const Program& program, const EvalContext& ctx) const;

 private:
  /// A stack slot: either an inline integer (ref == nullptr) or a borrowed
  /// Value (constant pool / deque element), so evaluation never copies or
  /// allocates a Value.
  struct Slot {
    std::int64_t i{0};
    const Value* ref{nullptr};
  };

  ExecStatus run(const Program& program, const EvalContext& ctx, Slot& result);
  ExecStatus fail(ExecStatus status, std::size_t ip);
  ExecStatus fail_value(ExecStatus status, std::size_t ip, const Slot& offending);

  std::vector<Slot> stack_;
  ExecStatus status_{ExecStatus::Ok};
  std::size_t error_ip_{0};
  Value error_value_{std::int64_t{0}};  // offending operand (TypeMismatch/NotBoolean)
};

}  // namespace attain::lang
