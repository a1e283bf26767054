// Statement/function extraction for the taint pass: groups the lexer's
// tokens into assignments, calls (with per-argument operand lists), and
// returns, and recovers function boundaries (Python indentation, Java
// braces) and block nesting so build_cfg (cfg.hpp) can lower each
// function to basic blocks.
#pragma once

#include <string>
#include <vector>

#include "genio/appsec/sast/lexer.hpp"

namespace genio::appsec::sast {

/// How deeply the parser follows calls nested inside calls. A deeper call
/// is not parsed: its statement is marked `truncated`, and the SAST gate
/// fails the file closed instead of passing it unscanned.
inline constexpr int kMaxCallNesting = 64;

/// How deeply blocks nest inside a function before the CFG stops following
/// them. Statements nested deeper are left out of the CFG, so every
/// recursion over the block tree (grouping, lowering, destruction) stays
/// within the cap. Those exactly one level past it are marked `truncated`,
/// so the gate fails the file closed; deeper ones add no finding of their
/// own.
inline constexpr int kMaxBlockNesting = 64;

/// One top-level argument of a call, flattened to what taint tracking
/// needs: which identifiers feed it and which calls wrap them.
struct ArgInfo {
  std::vector<std::string> idents;          // incl. f-string placeholders
  std::vector<std::string> nested_callees;  // dotted names of calls inside
  bool has_string = false;                  // a literal participates
  bool concatenated = false;                // + / % / f-string interpolation
};

struct CallRef {
  std::string callee;  // dotted name: "db.execute", "request.args.get"
  int line = 0;
  std::vector<ArgInfo> args;
};

/// Control-flow role of a statement, recovered from its leading keyword.
/// The CFG builder (cfg.hpp) keys branch/loop/jump lowering off this.
enum class StmtKind {
  kPlain,     // assignment / expression / block header with no branching
  kIf,        // `if cond:` / `if (cond) {`
  kElif,      // `elif cond:` / `} else if (cond) {`
  kElse,      // `else:` / `} else {`
  kWhile,     // `while cond:` — loop header, children form the body
  kFor,       // `for x in xs:` — loop header; Python target lands in `lhs`
  kTry,       // `try:` / `do {` / `finally:` — body always executes
  kExcept,    // `except:` / `catch (...)` — body may or may not execute
  kReturn,    // `return expr`
  kRaise,     // `raise` / `throw` — terminates the path like a return
  kBreak,     // jumps to the innermost loop exit
  kContinue,  // jumps back to the innermost loop header
};
std::string to_string(StmtKind kind);

struct Statement {
  int line = 0;
  int indent = 0;
  /// Nesting depth inside the enclosing function (0 = function top level).
  /// Block headers (if/while/...) sit at their parent's depth; the
  /// statements they govern are one level deeper. Derived from indentation
  /// for Python and from brace scoping for Java.
  int block = 0;
  StmtKind kind = StmtKind::kPlain;
  std::string lhs;            // assigned name; "" for expression statements
  bool augmented = false;     // `q += x` keeps q's existing taint
  bool is_return = false;
  bool concatenated = false;  // value expression joins strings/vars
  std::vector<std::string> rhs_idents;  // all operand idents (recursively)
  std::vector<CallRef> calls;           // nested calls before their caller
  /// Calls nest deeper than kMaxCallNesting (the ones below the cap are
  /// missing from `calls` and `rhs_idents`), or the statement opens a
  /// region nested deeper than kMaxBlockNesting blocks, which the CFG
  /// leaves out (every statement in it has `block` kMaxBlockNesting + 1).
  bool truncated = false;
};

struct FunctionDef {
  std::string name;                 // "<main>" for module/class level code
  std::vector<std::string> params;  // declaration order
  int line = 0;
  std::vector<Statement> body;
};

struct ParsedUnit {
  /// functions[0] is always the synthetic "<main>" top-level unit.
  std::vector<FunctionDef> functions;

  const FunctionDef* function(const std::string& name) const;
};

ParsedUnit parse(const SourceFile& file);

}  // namespace genio::appsec::sast
