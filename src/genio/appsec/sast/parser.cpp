#include "genio/appsec/sast/parser.hpp"

#include <algorithm>
#include <set>

namespace genio::appsec::sast {

namespace {

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "if",     "elif",   "else",  "for",   "while", "switch", "case",
      "catch",  "except", "try",   "with",  "do",    "return", "raise",
      "throw",  "assert", "not",   "and",   "or",    "in",     "is",
      "lambda", "new",    "print", "class", "def",   "import", "from",
      "synchronized", "finally", "pass", "break", "continue", "public",
      "private", "protected", "static", "final", "void", "throws"};
  return kw;
}

bool is_open(const Token& t) {
  return t.kind == TokenKind::kOp &&
         (t.text == "(" || t.text == "[" || t.text == "{");
}
bool is_close(const Token& t) {
  return t.kind == TokenKind::kOp &&
         (t.text == ")" || t.text == "]" || t.text == "}");
}
bool is_op(const Token& t, const char* text) {
  return t.kind == TokenKind::kOp && t.text == text;
}
bool is_ident(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdent && t.text == text;
}

bool is_assign_op(const Token& t) {
  if (t.kind != TokenKind::kOp) return false;
  return t.text == "=" || t.text == "+=" || t.text == "-=" || t.text == "*=" ||
         t.text == "/=" || t.text == "%=";
}

using Span = std::pair<std::size_t, std::size_t>;  // [begin, end)

/// Read a dotted identifier chain starting at i; returns one past its end.
std::size_t chain_end(const std::vector<Token>& toks, std::size_t i,
                      std::size_t end) {
  std::size_t j = i;
  while (j < end && toks[j].kind == TokenKind::kIdent) {
    if (j + 2 < end && is_op(toks[j + 1], ".") &&
        toks[j + 2].kind == TokenKind::kIdent) {
      j += 2;
    } else {
      ++j;
      break;
    }
  }
  return j;
}

std::string join_chain(const std::vector<Token>& toks, std::size_t i,
                       std::size_t end) {
  std::string out;
  for (std::size_t j = i; j < end; ++j) {
    if (toks[j].kind == TokenKind::kIdent) {
      if (!out.empty()) out += '.';
      out += toks[j].text;
    }
  }
  return out;
}

/// Every bracket pair in a token span, matched in one pass, so a walk that
/// descends through nested calls never rescans for a closer.
class Brackets {
 public:
  Brackets(const std::vector<Token>& toks, Span span)
      : base_(span.first), close_of_(span.second - span.first, span.second) {
    std::vector<std::size_t> open;
    for (std::size_t i = span.first; i < span.second; ++i) {
      if (is_open(toks[i])) {
        open.push_back(i);
      } else if (is_close(toks[i]) && !open.empty()) {
        close_of_[open.back() - base_] = i;
        open.pop_back();
      }
    }
  }

  /// The closer at which the bracket depth counted from the opener at
  /// `open` returns to zero, or `end` if there is none before `end`.
  std::size_t matching_close(std::size_t open, std::size_t end) const {
    return std::min(close_of_[open - base_], end);
  }

 private:
  std::size_t base_;
  std::vector<std::size_t> close_of_;  // opener -> its closer, or span end
};

struct ExprInfo {
  std::vector<std::string> idents;
  bool has_string = false;
  bool concatenated = false;
  bool truncated = false;  // a call nested deeper than kMaxCallNesting
};

/// Walk an expression span: record every call (recursively) into `calls`
/// and every data identifier into `info.idents`. `depth` counts the calls
/// enclosing the span. A call that would nest deeper than kMaxCallNesting
/// is skipped whole and flags `info.truncated`, which bounds the recursion
/// and the per-level copies on any input.
void walk_expr(const std::vector<Token>& toks, const Brackets& brackets,
               Span span, int depth, std::vector<CallRef>& calls,
               ExprInfo& info) {
  std::size_t i = span.first;
  while (i < span.second) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kIdent && !control_keywords().count(t.text)) {
      const std::size_t ce = chain_end(toks, i, span.second);
      if (ce < span.second && is_op(toks[ce], "(")) {
        // A call: parse its top-level arguments.
        const std::size_t close = brackets.matching_close(ce, span.second);
        const std::size_t next = close == span.second ? span.second : close + 1;
        if (depth == kMaxCallNesting) {
          info.truncated = true;
          i = next;
          continue;
        }
        CallRef call;
        call.callee = join_chain(toks, i, ce);
        call.line = t.line;
        std::size_t arg_begin = ce + 1;
        for (std::size_t j = ce + 1; j <= close && j < span.second; ++j) {
          const bool at_end = j == close;
          if (!at_end && is_open(toks[j])) {
            j = brackets.matching_close(j, close);  // commas in there are not ours
            continue;
          }
          if (at_end || is_op(toks[j], ",")) {
            if (j > arg_begin) {
              ArgInfo arg;
              ExprInfo arg_info;
              std::vector<CallRef> nested;
              walk_expr(toks, brackets, {arg_begin, j}, depth + 1, nested,
                        arg_info);
              // The enclosing expression depends on everything the call saw.
              info.idents.insert(info.idents.end(), arg_info.idents.begin(),
                                 arg_info.idents.end());
              info.has_string |= arg_info.has_string;
              info.concatenated |= arg_info.concatenated;
              info.truncated |= arg_info.truncated;
              arg.has_string = arg_info.has_string;
              arg.concatenated = arg_info.concatenated;
              arg.idents = std::move(arg_info.idents);
              for (const auto& n : nested) arg.nested_callees.push_back(n.callee);
              for (auto& n : nested) calls.push_back(std::move(n));
              call.args.push_back(std::move(arg));
            }
            arg_begin = j + 1;
          }
        }
        calls.push_back(std::move(call));
        i = next;
        continue;
      }
      // Plain (possibly dotted) identifier used as data.
      info.idents.push_back(join_chain(toks, i, ce));
      i = ce;
      continue;
    }
    if (t.kind == TokenKind::kString) {
      info.has_string = true;
      if (!t.interpolated.empty()) {
        info.concatenated = true;  // f-string builds a composite value
        info.idents.insert(info.idents.end(), t.interpolated.begin(),
                           t.interpolated.end());
      }
      ++i;
      continue;
    }
    if (is_op(t, "+") || is_op(t, "%")) info.concatenated = true;
    ++i;
  }
}

/// Control-flow role from the statement's leading keyword. `else if` (Java)
/// folds into kElif so if-chains lower uniformly across both languages.
StmtKind classify(const std::vector<Token>& toks, Span span) {
  const Token& first = toks[span.first];
  if (first.kind != TokenKind::kIdent) return StmtKind::kPlain;
  const std::string& t = first.text;
  if (t == "if") return StmtKind::kIf;
  if (t == "elif") return StmtKind::kElif;
  if (t == "else") {
    return span.second > span.first + 1 && is_ident(toks[span.first + 1], "if")
               ? StmtKind::kElif
               : StmtKind::kElse;
  }
  if (t == "while") return StmtKind::kWhile;
  if (t == "for") return StmtKind::kFor;
  if (t == "try" || t == "do" || t == "finally") return StmtKind::kTry;
  if (t == "except" || t == "catch") return StmtKind::kExcept;
  if (t == "return") return StmtKind::kReturn;
  if (t == "raise" || t == "throw") return StmtKind::kRaise;
  if (t == "break") return StmtKind::kBreak;
  if (t == "continue") return StmtKind::kContinue;
  return StmtKind::kPlain;
}

Statement make_statement(const std::vector<Token>& toks, Span span) {
  Statement stmt;
  stmt.line = toks[span.first].line;
  stmt.indent = toks[span.first].indent;
  stmt.kind = classify(toks, span);

  std::size_t value_begin = span.first;
  if (is_ident(toks[span.first], "return") || is_ident(toks[span.first], "raise") ||
      is_ident(toks[span.first], "throw")) {
    stmt.is_return = is_ident(toks[span.first], "return");
    value_begin = span.first + 1;
  } else if (stmt.kind == StmtKind::kFor && span.second > span.first + 2 &&
             toks[span.first + 1].kind == TokenKind::kIdent &&
             !is_op(toks[span.first + 2], "(")) {
    // Python `for <target> in <iterable>:` — model the header as a
    // per-iteration assignment of the iterable's taint to the target.
    // Tuple targets keep only the first name (conservative).
    std::size_t in_pos = span.second;
    for (std::size_t i = span.first + 1; i < span.second; ++i) {
      if (is_ident(toks[i], "in")) {
        in_pos = i;
        break;
      }
    }
    if (in_pos < span.second) {
      stmt.lhs = toks[span.first + 1].text;
      value_begin = in_pos + 1;
    }
  } else {
    // Find a top-level assignment operator.
    int depth = 0;
    for (std::size_t i = span.first; i < span.second; ++i) {
      if (is_open(toks[i])) ++depth;
      if (is_close(toks[i])) --depth;
      if (depth == 0 && is_assign_op(toks[i]) && i > span.first) {
        // lhs = trailing dotted chain before the operator. Walking back
        // strictly as ident(.ident)* keeps type names out of it: in
        // `String q = ...` only `q` is the target.
        const std::size_t lhs_end = i;
        if (lhs_end > span.first &&
            toks[lhs_end - 1].kind == TokenKind::kIdent) {
          std::size_t lhs_begin = lhs_end - 1;
          while (lhs_begin >= span.first + 2 && is_op(toks[lhs_begin - 1], ".") &&
                 toks[lhs_begin - 2].kind == TokenKind::kIdent) {
            lhs_begin -= 2;
          }
          // `q: str = ...`: the annotation, not `str`, names the target.
          if (lhs_begin >= span.first + 2 && is_op(toks[lhs_begin - 1], ":") &&
              toks[lhs_begin - 2].kind == TokenKind::kIdent) {
            stmt.lhs = toks[lhs_begin - 2].text;
          } else {
            stmt.lhs = join_chain(toks, lhs_begin, lhs_end);
          }
          stmt.augmented = toks[i].text != "=";
          value_begin = i + 1;
        }
        break;
      }
    }
  }

  ExprInfo info;
  const Span value{value_begin, span.second};
  walk_expr(toks, Brackets(toks, value), value, 0, stmt.calls, info);
  stmt.rhs_idents = std::move(info.idents);
  stmt.concatenated = info.concatenated;
  stmt.truncated = info.truncated;
  return stmt;
}

std::vector<std::string> parse_params(const std::vector<Token>& toks,
                                      Span span, bool python) {
  std::vector<std::string> params;
  std::size_t group_begin = span.first;
  int depth = 0;
  for (std::size_t i = span.first; i <= span.second; ++i) {
    const bool at_end = i == span.second;
    if (!at_end && is_open(toks[i])) ++depth;
    if (!at_end && is_close(toks[i])) --depth;
    if (at_end || (depth == 0 && is_op(toks[i], ","))) {
      // Python: first ident of the group (before any `=` default).
      // Java: last ident of the group (`final String name`).
      std::string name;
      for (std::size_t j = group_begin; j < i; ++j) {
        if (is_op(toks[j], "=")) break;
        if (toks[j].kind == TokenKind::kIdent &&
            !control_keywords().count(toks[j].text)) {
          name = toks[j].text;
          if (python) break;
        }
      }
      if (!name.empty()) params.push_back(name);
      group_begin = i + 1;
    }
  }
  return params;
}

/// Block depth `depth`, held at kMaxBlockNesting + 1 past the cap. Depth
/// grows one level at a time, so every region past the cap starts with a
/// statement exactly one level past it; that statement is flagged.
void set_block(Statement& stmt, int depth) {
  stmt.block = std::min(depth, kMaxBlockNesting + 1);
  stmt.truncated = stmt.truncated || depth == kMaxBlockNesting + 1;
}

/// Python block depth from indentation: a statement deeper than the one
/// before it opens a nested block; dedenting pops back to the matching
/// level. Depth 0 is the function's top level regardless of the absolute
/// indent the body starts at.
void assign_python_blocks(FunctionDef& fn) {
  std::vector<int> indents;
  for (auto& stmt : fn.body) {
    if (indents.empty()) indents.push_back(stmt.indent);
    while (indents.size() > 1 && stmt.indent < indents.back()) indents.pop_back();
    if (stmt.indent > indents.back()) indents.push_back(stmt.indent);
    set_block(stmt, static_cast<int>(indents.size()) - 1);
  }
}

}  // namespace

std::string to_string(StmtKind kind) {
  switch (kind) {
    case StmtKind::kPlain: return "plain";
    case StmtKind::kIf: return "if";
    case StmtKind::kElif: return "elif";
    case StmtKind::kElse: return "else";
    case StmtKind::kWhile: return "while";
    case StmtKind::kFor: return "for";
    case StmtKind::kTry: return "try";
    case StmtKind::kExcept: return "except";
    case StmtKind::kReturn: return "return";
    case StmtKind::kRaise: return "raise";
    case StmtKind::kBreak: return "break";
    case StmtKind::kContinue: return "continue";
  }
  return "plain";
}

const FunctionDef* ParsedUnit::function(const std::string& name) const {
  for (const auto& f : functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

ParsedUnit parse(const SourceFile& file) {
  const auto toks = lex(file);
  const bool python = file.language != Language::kJava;

  ParsedUnit unit;
  unit.functions.push_back({"<main>", {}, 1, {}});

  // Split the token stream into raw statements.
  std::vector<Span> spans;
  {
    std::size_t begin = 0;
    int depth = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (python) {
        if (is_open(t)) ++depth;
        if (is_close(t)) --depth;
        const bool line_break = i + 1 < toks.size() &&
                                toks[i + 1].line != t.line && depth <= 0;
        const bool semi = is_op(t, ";");
        if (line_break || semi || i + 1 == toks.size()) {
          const std::size_t end = semi ? i : i + 1;
          if (end > begin) spans.emplace_back(begin, end);
          begin = i + 1;
        }
      } else {
        // `;` only separates statements at paren depth 0, so a
        // `for (int i = 0; i < n; i++)` header stays one statement.
        if (is_op(t, "(")) ++depth;
        if (is_op(t, ")")) --depth;
        if ((is_op(t, ";") && depth <= 0) || is_op(t, "{") || is_op(t, "}")) {
          const std::size_t end = is_op(t, "{") ? i + 1 : i;  // keep `{`
          if (end > begin) spans.emplace_back(begin, end);
          if (is_op(t, "}")) spans.emplace_back(i, i + 1);  // scope pop marker
          begin = i + 1;
        }
      }
    }
    if (begin < toks.size()) spans.emplace_back(begin, toks.size());
  }

  if (python) {
    // Indentation scoping: a stack of (function index, def indent).
    std::vector<std::pair<std::size_t, int>> stack;
    for (const Span& span : spans) {
      const Token& first = toks[span.first];
      while (!stack.empty() && first.indent <= stack.back().second) {
        stack.pop_back();
      }
      if (is_ident(first, "def") && span.second > span.first + 1 &&
          toks[span.first + 1].kind == TokenKind::kIdent) {
        FunctionDef fn;
        fn.name = toks[span.first + 1].text;
        fn.line = first.line;
        std::size_t open = span.first + 2;
        while (open < span.second && !is_op(toks[open], "(")) ++open;
        if (open < span.second) {
          const std::size_t close =
              Brackets(toks, span).matching_close(open, span.second);
          fn.params = parse_params(toks, {open + 1, close}, true);
        }
        unit.functions.push_back(std::move(fn));
        stack.emplace_back(unit.functions.size() - 1, first.indent);
        continue;
      }
      if (is_ident(first, "class") || is_ident(first, "import") ||
          is_ident(first, "from")) {
        continue;
      }
      const std::size_t target = stack.empty() ? 0 : stack.back().first;
      unit.functions[target].body.push_back(make_statement(toks, span));
    }
    for (auto& fn : unit.functions) assign_python_blocks(fn);
  } else {
    // Brace scoping: one entry per open class, method or control block,
    // holding the function its body belongs to and the number of control
    // blocks between that body and the function. A class keeps both of its
    // parent's; a method starts at depth 0; a control block adds one.
    std::vector<std::pair<std::size_t, int>> stack;  // (function idx, depth)
    for (const Span& span : spans) {
      const Token& first = toks[span.first];
      if (is_op(first, "}")) {
        if (!stack.empty()) stack.pop_back();
        continue;
      }
      const bool opens_block = is_op(toks[span.second - 1], "{");
      const std::size_t current_fn = stack.empty() ? 0 : stack.back().first;
      const int block_depth = stack.empty() ? 0 : stack.back().second;
      if (opens_block) {
        bool is_container = false;
        for (std::size_t i = span.first; i < span.second; ++i) {
          if (is_ident(toks[i], "class") || is_ident(toks[i], "interface") ||
              is_ident(toks[i], "enum")) {
            is_container = true;
            break;
          }
        }
        if (is_container) {
          stack.emplace_back(current_fn, block_depth);
          continue;
        }
        // Method header: `modifiers Type name ( params ) {`, with no `=`
        // and not led by a control keyword.
        std::size_t open = span.first;
        while (open < span.second && !is_op(toks[open], "(")) ++open;
        const bool has_assign = [&] {
          for (std::size_t i = span.first; i < span.second; ++i) {
            if (is_assign_op(toks[i])) return true;
          }
          return false;
        }();
        const bool control =
            first.kind == TokenKind::kIdent &&
            (first.text == "if" || first.text == "for" || first.text == "while" ||
             first.text == "switch" || first.text == "catch" ||
             first.text == "do" || first.text == "try" || first.text == "else" ||
             first.text == "synchronized");
        if (!control && !has_assign && open > span.first &&
            open < span.second && toks[open - 1].kind == TokenKind::kIdent) {
          FunctionDef fn;
          fn.name = toks[open - 1].text;
          fn.line = first.line;
          const std::size_t close =
              Brackets(toks, span).matching_close(open, span.second);
          fn.params = parse_params(toks, {open + 1, close}, false);
          unit.functions.push_back(std::move(fn));
          stack.emplace_back(unit.functions.size() - 1, 0);
          continue;
        }
        // Control block: statements inside still belong to current_fn, but
        // the header itself may carry calls (`if (isAdmin(user)) {`).
        Statement header = make_statement(toks, {span.first, span.second - 1});
        set_block(header, block_depth);
        unit.functions[current_fn].body.push_back(std::move(header));
        stack.emplace_back(current_fn, block_depth + 1);
        continue;
      }
      if (is_ident(first, "package") || is_ident(first, "import")) continue;
      Statement stmt = make_statement(toks, span);
      set_block(stmt, block_depth);
      unit.functions[current_fn].body.push_back(std::move(stmt));
    }
  }
  return unit;
}

}  // namespace genio::appsec::sast
