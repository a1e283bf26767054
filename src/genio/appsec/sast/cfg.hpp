// Control-flow graph over the parser's block-structured statement lists
// (M14v3). Lowers if/elif/else chains, while/for loops (with back edges),
// try/except, break/continue and early return/raise into basic blocks so
// the worklist dataflow solver (dataflow.cpp) can merge taint at joins and
// iterate loop bodies to a fixpoint instead of walking statements once in
// textual order.
#pragma once

#include <string>
#include <vector>

#include "genio/appsec/sast/parser.hpp"

namespace genio::appsec::sast {

struct BasicBlock {
  int id = 0;
  std::vector<const Statement*> stmts;  // in execution order
  std::vector<int> succ;
  std::vector<int> pred;
  bool loop_header = false;  // while/for header: target of a back edge
};

/// CFG of one function. Block 0 is the entry, block 1 the synthetic exit;
/// returns and raises edge to the exit. Statements keep pointers into the
/// FunctionDef the graph was built from, which must outlive the Cfg.
struct Cfg {
  std::vector<BasicBlock> blocks;
  int entry = 0;
  int exit = 1;

  int add_block();
  void add_edge(int from, int to);
};

/// Build the CFG from Statement::kind / Statement::block structure. Every
/// path through the function starts at `entry` and ends at `exit`;
/// unreachable statements (code after a return) land in blocks with no
/// predecessors so the solver treats them as dead.
Cfg build_cfg(const FunctionDef& fn);

/// Compact rendering for tests and debugging, one block per line:
/// "B2[L4,L5] -> 3,4". Deterministic.
std::string render_cfg(const Cfg& cfg);

}  // namespace genio::appsec::sast
