#include "genio/appsec/sast/cfg.hpp"

#include <algorithm>

namespace genio::appsec::sast {

int Cfg::add_block() {
  const int id = static_cast<int>(blocks.size());
  blocks.push_back(BasicBlock{id, {}, {}, {}, false});
  return id;
}

void Cfg::add_edge(int from, int to) {
  auto& s = blocks[static_cast<std::size_t>(from)].succ;
  if (std::find(s.begin(), s.end(), to) != s.end()) return;
  s.push_back(to);
  blocks[static_cast<std::size_t>(to)].pred.push_back(from);
}

namespace {

/// Statement tree: a node owns the statements nested one block level
/// deeper than it (the body of an if/loop, the suite under `with`).
struct Node {
  const Statement* stmt = nullptr;
  std::vector<Node> children;
};

/// Group a flat body into a tree by Statement::block depth. `i` advances
/// past every statement at depth >= `depth`; deeper runs attach to the
/// preceding node as children. Statements past kMaxBlockNesting are
/// skipped, so the tree, and every recursion over it, is at most that deep.
std::vector<Node> build_tree(const std::vector<Statement>& body, std::size_t& i,
                             int depth) {
  std::vector<Node> out;
  while (i < body.size() && body[i].block >= depth) {
    if (body[i].block > kMaxBlockNesting) {
      ++i;
      continue;
    }
    if (body[i].block > depth) {
      std::vector<Node> kids = build_tree(body, i, body[i].block);
      if (out.empty()) {
        // Malformed indentation with no owner: splice in as siblings.
        for (auto& k : kids) out.push_back(std::move(k));
      } else {
        for (auto& k : kids) out.back().children.push_back(std::move(k));
      }
      continue;
    }
    out.push_back(Node{&body[i], {}});
    ++i;
  }
  return out;
}

class Lowering {
 public:
  explicit Lowering(Cfg& cfg) : cfg_(cfg) {}

  /// Lower a statement sequence starting in block `cur`. Returns the block
  /// where control continues afterwards, or -1 when every path left the
  /// sequence (return / raise / break / continue).
  int lower_seq(const std::vector<Node>& nodes, int cur) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node& node = nodes[i];
      if (cur < 0) cur = cfg_.add_block();  // dead code: block with no preds
      switch (node.stmt->kind) {
        case StmtKind::kReturn:
        case StmtKind::kRaise:
          append(cur, node.stmt);
          cfg_.add_edge(cur, cfg_.exit);
          cur = -1;
          break;
        case StmtKind::kBreak:
          append(cur, node.stmt);
          if (!loops_.empty()) {
            cfg_.add_edge(cur, loops_.back().exit);
            cur = -1;
          }
          break;
        case StmtKind::kContinue:
          append(cur, node.stmt);
          if (!loops_.empty()) {
            cfg_.add_edge(cur, loops_.back().header);
            cur = -1;
          }
          break;
        case StmtKind::kWhile:
        case StmtKind::kFor:
          cur = lower_loop(node, cur);
          break;
        case StmtKind::kIf:
          cur = lower_if_chain(nodes, i, cur);
          break;
        case StmtKind::kElif:
        case StmtKind::kElse:
        case StmtKind::kExcept:
          // An except handler, or an orphaned branch arm (e.g. a loop
          // `else:`): the body may or may not run.
          cur = lower_maybe(node, cur);
          break;
        case StmtKind::kTry:
        case StmtKind::kPlain:
          append(cur, node.stmt);
          if (!node.children.empty()) {
            const int body = cfg_.add_block();
            cfg_.add_edge(cur, body);
            cur = lower_seq(node.children, body);
          }
          break;
      }
    }
    return cur;
  }

 private:
  struct LoopCtx {
    int header = 0;
    int exit = 0;
  };

  void append(int block, const Statement* stmt) {
    cfg_.blocks[static_cast<std::size_t>(block)].stmts.push_back(stmt);
  }

  int lower_loop(const Node& node, int cur) {
    const int header = cfg_.add_block();
    cfg_.blocks[static_cast<std::size_t>(header)].loop_header = true;
    append(header, node.stmt);  // condition / per-iteration target binding
    cfg_.add_edge(cur, header);
    const int after = cfg_.add_block();
    const int body = cfg_.add_block();
    cfg_.add_edge(header, body);
    cfg_.add_edge(header, after);  // zero-iteration path
    loops_.push_back({header, after});
    const int body_end = lower_seq(node.children, body);
    if (body_end >= 0) cfg_.add_edge(body_end, header);  // back edge
    loops_.pop_back();
    return after;
  }

  /// `if` plus any directly following elif/else arms. Every condition gets
  /// its own block so the false edge of condition k feeds condition k+1;
  /// all arm ends meet at a fresh join block.
  int lower_if_chain(const std::vector<Node>& nodes, std::size_t& i, int cur) {
    append(cur, nodes[i].stmt);  // the `if` condition evaluates in `cur`
    const int join = cfg_.add_block();
    int cond = cur;

    int arm = cfg_.add_block();
    cfg_.add_edge(cond, arm);
    int arm_end = lower_seq(nodes[i].children, arm);
    if (arm_end >= 0) cfg_.add_edge(arm_end, join);

    bool has_else = false;
    std::size_t j = i + 1;
    for (; j < nodes.size(); ++j) {
      const StmtKind kind = nodes[j].stmt->kind;
      if (kind == StmtKind::kElif) {
        const int next_cond = cfg_.add_block();
        append(next_cond, nodes[j].stmt);
        cfg_.add_edge(cond, next_cond);
        cond = next_cond;
        arm = cfg_.add_block();
        cfg_.add_edge(cond, arm);
        arm_end = lower_seq(nodes[j].children, arm);
        if (arm_end >= 0) cfg_.add_edge(arm_end, join);
        continue;
      }
      if (kind == StmtKind::kElse) {
        arm = cfg_.add_block();
        append(arm, nodes[j].stmt);
        cfg_.add_edge(cond, arm);
        arm_end = lower_seq(nodes[j].children, arm);
        if (arm_end >= 0) cfg_.add_edge(arm_end, join);
        has_else = true;
        ++j;
      }
      break;
    }
    if (!has_else) cfg_.add_edge(cond, join);  // condition-false fallthrough
    i = j - 1;
    return join;
  }

  /// Body that may or may not execute (except/catch, loop else).
  int lower_maybe(const Node& node, int cur) {
    const int join = cfg_.add_block();
    const int body = cfg_.add_block();
    append(body, node.stmt);
    cfg_.add_edge(cur, body);
    cfg_.add_edge(cur, join);
    const int body_end = lower_seq(node.children, body);
    if (body_end >= 0) cfg_.add_edge(body_end, join);
    return join;
  }

  Cfg& cfg_;
  std::vector<LoopCtx> loops_;
};

}  // namespace

Cfg build_cfg(const FunctionDef& fn) {
  Cfg cfg;
  cfg.entry = cfg.add_block();
  cfg.exit = cfg.add_block();
  std::size_t i = 0;
  const int base = fn.body.empty() ? 0 : fn.body.front().block;
  std::vector<Node> roots = build_tree(fn.body, i, base);
  Lowering lowering(cfg);
  const int last = lowering.lower_seq(roots, cfg.entry);
  if (last >= 0) cfg.add_edge(last, cfg.exit);
  return cfg;
}

std::string render_cfg(const Cfg& cfg) {
  std::string out;
  for (const auto& block : cfg.blocks) {
    out += "B" + std::to_string(block.id);
    if (block.id == cfg.entry) out += "(entry)";
    if (block.id == cfg.exit) out += "(exit)";
    if (block.loop_header) out += "(loop)";
    out += "[";
    for (std::size_t i = 0; i < block.stmts.size(); ++i) {
      if (i > 0) out += ",";
      out += "L" + std::to_string(block.stmts[i]->line);
    }
    out += "]";
    if (!block.succ.empty()) {
      out += " -> ";
      for (std::size_t i = 0; i < block.succ.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(block.succ[i]);
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace genio::appsec::sast
