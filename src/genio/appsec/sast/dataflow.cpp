// Flow-sensitive interprocedural taint engine (M14v3) behind
// TaintAnalyzer::analyze. Builds a CFG per function (cfg.hpp), runs a
// worklist fixpoint over a per-variable untainted < sanitized < tainted
// lattice with merge at control-flow joins, and computes bottom-up,
// recursion-safe function summaries to a fixpoint so multi-hop
// source->helper->helper->sink chains trace end to end, then extracts
// each function's flows in source order.
#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "genio/appsec/sast/cfg.hpp"
#include "genio/appsec/sast/taint.hpp"

namespace genio::appsec::sast {

namespace {

/// Traces are provenance, not part of the lattice: they are excluded from
/// convergence checks (or loop iteration would grow them forever) and
/// capped so bounded rounds imply bounded memory.
constexpr std::size_t kMaxTraceSteps = 24;

void push_step(std::vector<TaintStep>& trace, TaintStep step) {
  if (trace.size() >= kMaxTraceSteps) return;
  trace.push_back(std::move(step));
}

/// The per-variable lattice: untainted < sanitized < tainted. "Sanitized"
/// keeps the neutralized flow's provenance so sinks it reaches can still
/// be reported for audit (and refute legacy regex noise).
enum class TaintState { kUntainted = 0, kSanitized = 1, kTainted = 2 };

struct TaintVal {
  TaintState state = TaintState::kUntainted;
  bool from_source = false;      // a real source call/ident feeds it
  std::set<std::string> params;  // parameter names it may derive from
  int source_line = 0;
  std::vector<TaintStep> trace;
  std::string sanitizer_note;  // set when state == kSanitized
};

/// Least upper bound. The higher state wins wholesale — its trace is the
/// evidence for the reported state; traces are never concatenated across
/// branches. Equal states merge provenance deterministically: prefer the
/// source-backed side, then the side with a trace, then the textually
/// earlier source line. Params always union (may-analysis).
TaintVal join(const TaintVal& a, const TaintVal& b) {
  const TaintVal* hi = &a;
  const TaintVal* lo = &b;
  if (static_cast<int>(b.state) > static_cast<int>(a.state)) {
    hi = &b;
    lo = &a;
  } else if (a.state == b.state) {
    bool prefer_b = false;
    if (b.from_source != a.from_source) {
      prefer_b = b.from_source;
    } else if (a.trace.empty() != b.trace.empty()) {
      prefer_b = a.trace.empty();
    } else if (a.source_line != b.source_line) {
      prefer_b = b.source_line != 0 &&
                 (a.source_line == 0 || b.source_line < a.source_line);
    }
    if (prefer_b) {
      hi = &b;
      lo = &a;
    }
  }
  TaintVal out = *hi;
  out.from_source = a.from_source || b.from_source;
  out.params.insert(lo->params.begin(), lo->params.end());
  return out;
}

/// Environment at a program point. Absent variables are untainted
/// (lattice bottom); entries are only ever kSanitized or kTainted.
using Env = std::map<std::string, TaintVal>;

void join_env(Env& into, const Env& from) {
  for (const auto& [name, val] : from) {
    const auto it = into.find(name);
    if (it == into.end()) {
      into.emplace(name, val);
    } else {
      it->second = join(it->second, val);
    }
  }
}

/// Abstract signature used for convergence: everything except the trace.
using AbstractVal = std::tuple<int, bool, std::set<std::string>, int>;
using AbstractEnv = std::map<std::string, AbstractVal>;

AbstractEnv abstract_env(const Env& env) {
  AbstractEnv out;
  for (const auto& [name, val] : env) {
    out.emplace(name, AbstractVal{static_cast<int>(val.state), val.from_source,
                                  val.params, val.source_line});
  }
  return out;
}

/// Interprocedural summary of one function, recomputed each fixpoint
/// round. param_sinks carry composed multi-hop paths: if f's param p flows
/// into g and g's param reaches a sink, f's summary records the full
/// p -> g -> sink chain.
struct Summary {
  struct ParamSink {
    std::string param;
    const SinkSpec* sink = nullptr;
    int sink_line = 0;
    std::vector<TaintStep> steps;  // param entry ... sink, composed
  };
  std::vector<ParamSink> param_sinks;  // unsanitized param->sink flows
  std::set<std::string> params_returned;
  bool returns_source = false;
  TaintVal return_taint;  // set when returns_source

  /// Trace-free fingerprint for summary-fixpoint convergence.
  std::set<std::string> abstract_key() const {
    std::set<std::string> key;
    for (const auto& ps : param_sinks) {
      key.insert("s:" + ps.param + ":" + ps.sink->rule_id + ":" +
                 std::to_string(ps.sink_line));
    }
    for (const auto& p : params_returned) key.insert("r:" + p);
    if (returns_source) {
      key.insert("src:" + std::to_string(return_taint.source_line));
    }
    return key;
  }
};

/// Result of evaluating one expression (a call argument or a statement's
/// whole value) against the current environment.
struct ExprTaint {
  bool tainted = false;
  bool sanitized = false;
  std::string sanitizer_note;
  TaintVal taint;
  // Taint that entered a sanitizer in this expression (`escape(uid)`) or a
  // copy of a sanitized variable: the value is clean, but the neutralized
  // flow is remembered so sinks it reaches report audit findings.
  bool cleansed = false;
  TaintVal cleansed_taint;
};

class FlowEngine {
 public:
  FlowEngine(const ParsedUnit& unit, const TaintRuleSet& rules, Language lang)
      : unit_(unit), rules_(rules), lang_(lang) {
    for (const auto& fn : unit.functions) {
      if (fn.name != "<main>") functions_[fn.name] = &fn;
    }
  }

  /// Bottom-up summaries to a fixpoint. Gauss–Seidel over functions in
  /// file order (a summary computed this round is visible to later
  /// functions immediately); recursion starts from the empty summary and
  /// grows monotonically until the abstract keys stop changing. The round
  /// cap is a safety net — every real chain converges in <= depth rounds.
  void solve_summaries() {
    const std::size_t cap = unit_.functions.size() + 2;
    for (std::size_t round = 0; round < cap; ++round) {
      bool changed = false;
      for (const auto& fn : unit_.functions) {
        if (fn.name == "<main>") continue;
        const Cfg cfg = build_cfg(fn);
        const std::vector<Env> in = solve(fn, cfg);
        Summary next;
        sweep(fn, cfg, in, next, nullptr, nullptr);
        if (next.abstract_key() != summaries_[fn.name].abstract_key()) {
          changed = true;
        }
        summaries_[fn.name] = std::move(next);
      }
      if (!changed) break;
    }
  }

  struct FnResult {
    std::vector<TaintFlow> flows;
    std::set<int> constant_sinks;
  };

  /// Final extraction for one function: re-solve its fixpoint and emit
  /// flows in block/statement order. Pure function of the (now frozen)
  /// summaries — safe to run for many functions concurrently.
  FnResult extract(const FunctionDef& fn) const {
    FnResult out;
    const Cfg cfg = build_cfg(fn);
    const std::vector<Env> in = solve(fn, cfg);
    Summary scratch;
    sweep(fn, cfg, in, scratch, &out.flows, &out.constant_sinks);
    return out;
  }

 private:
  // ------------------------------------------------------------- lookups

  const Summary* summary_for(const std::string& callee) const {
    const auto it = summaries_.find(last_dotted_segment(callee));
    return it == summaries_.end() ? nullptr : &it->second;
  }
  const FunctionDef* function_for(const std::string& callee) const {
    const auto it = functions_.find(last_dotted_segment(callee));
    return it == functions_.end() ? nullptr : it->second;
  }

  std::optional<TaintVal> ident_val(const std::string& ident, int line,
                                    const Env& env) const {
    const auto it = env.find(ident);
    if (it != env.end()) return it->second;
    if (const SourceSpec* s = rules_.match_source_ident(ident, lang_)) {
      TaintVal t;
      t.state = TaintState::kTainted;
      t.from_source = true;
      t.source_line = line;
      t.trace = {{line, std::string(s->note) + " '" + ident + "'"}};
      return t;
    }
    return std::nullopt;
  }

  // ---------------------------------------------------------- evaluation

  /// Taint of a single call argument: nested sanitizer wrappers
  /// (`execute(escape(x))`), nested source calls, tainted helper returns,
  /// and identifiers — including sanitized-state variables, which surface
  /// as tainted+sanitized so the sink reports an audit flow.
  ExprTaint eval_arg(const ArgInfo& arg, int line, const Env& env) const {
    ExprTaint out;
    for (const auto& callee : arg.nested_callees) {
      if (const SanitizerSpec* s = rules_.match_sanitizer(callee, lang_)) {
        out.sanitized = true;
        out.sanitizer_note = s->note + " by " + callee + "()";
      }
    }
    for (const auto& callee : arg.nested_callees) {
      if (const SourceSpec* s = rules_.match_source_call(callee, lang_)) {
        TaintVal t;
        t.state = TaintState::kTainted;
        t.from_source = true;
        t.source_line = line;
        t.trace = {{line, std::string(s->note) + " via " + callee + "()"}};
        out.taint = join(out.taint, t);
        out.tainted = true;
        continue;
      }
      if (const Summary* s = summary_for(callee)) {
        if (s->returns_source) {
          TaintVal t = s->return_taint;
          push_step(t.trace, {line, "tainted return value of " + callee + "()"});
          out.taint = join(out.taint, t);
          out.tainted = true;
        }
      }
    }
    for (const auto& ident : arg.idents) {
      const auto v = ident_val(ident, line, env);
      if (!v) continue;
      out.taint = join(out.taint, *v);
      out.tainted = true;
      if (v->state == TaintState::kSanitized) {
        out.sanitized = true;
        out.sanitizer_note = v->sanitizer_note;
      }
    }
    return out;
  }

  /// Taint of a statement's whole value expression (assignment RHS,
  /// return value, for-loop iterable): identifiers minus sanitized ones,
  /// plus source calls and tainted helper returns.
  ExprTaint eval_value(const Statement& stmt, const Env& env) const {
    ExprTaint out;
    std::set<std::string> sanitized_idents;
    std::set<std::string> sanitized_callees;
    for (const auto& call : stmt.calls) {
      const SanitizerSpec* s = rules_.match_sanitizer(call.callee, lang_);
      if (s == nullptr) continue;
      out.sanitized = true;
      out.sanitizer_note = s->note + " by " + call.callee + "()";
      for (const auto& arg : call.args) {
        sanitized_idents.insert(arg.idents.begin(), arg.idents.end());
        sanitized_callees.insert(arg.nested_callees.begin(),
                                 arg.nested_callees.end());
        for (const auto& ident : arg.idents) {
          if (const auto v = ident_val(ident, stmt.line, env)) {
            out.cleansed = true;
            out.cleansed_taint = join(out.cleansed_taint, *v);
          }
        }
        for (const auto& callee : arg.nested_callees) {
          const SourceSpec* src = rules_.match_source_call(callee, lang_);
          if (src == nullptr) continue;
          TaintVal t;
          t.state = TaintState::kTainted;
          t.from_source = true;
          t.source_line = stmt.line;
          t.trace = {{stmt.line, std::string(src->note) + " via " + callee + "()"}};
          out.cleansed = true;
          out.cleansed_taint = join(out.cleansed_taint, t);
        }
      }
    }
    for (const auto& ident : stmt.rhs_idents) {
      if (sanitized_idents.count(ident) != 0) continue;
      const auto v = ident_val(ident, stmt.line, env);
      if (!v) continue;
      if (v->state == TaintState::kTainted) {
        out.taint = join(out.taint, *v);
        out.tainted = true;
      } else {
        // Copy of a sanitized variable: the value stays clean but keeps
        // its neutralized provenance (sanitized state propagates).
        out.cleansed = true;
        out.cleansed_taint = join(out.cleansed_taint, *v);
        if (out.sanitizer_note.empty()) out.sanitizer_note = v->sanitizer_note;
      }
    }
    for (const auto& call : stmt.calls) {
      if (sanitized_callees.count(call.callee) != 0) continue;
      if (const SourceSpec* s = rules_.match_source_call(call.callee, lang_)) {
        TaintVal t;
        t.state = TaintState::kTainted;
        t.from_source = true;
        t.source_line = call.line;
        t.trace = {{call.line, std::string(s->note) + " via " + call.callee + "()"}};
        out.taint = join(out.taint, t);
        out.tainted = true;
        continue;
      }
      const Summary* summary = summary_for(call.callee);
      if (summary == nullptr) continue;
      if (summary->returns_source) {
        TaintVal t = summary->return_taint;
        push_step(t.trace,
                  {call.line, "tainted return value of " + call.callee + "()"});
        out.taint = join(out.taint, t);
        out.tainted = true;
      }
      const FunctionDef* callee_fn = function_for(call.callee);
      if (callee_fn == nullptr) continue;
      const std::size_t n = std::min(call.args.size(), callee_fn->params.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (summary->params_returned.count(callee_fn->params[i]) == 0) continue;
        ExprTaint at = eval_arg(call.args[i], call.line, env);
        if (!at.tainted || at.sanitized) continue;
        TaintVal t = at.taint;
        push_step(t.trace, {call.line, "flows through " + call.callee +
                                           "() and back via its return value"});
        out.taint = join(out.taint, t);
        out.tainted = true;
      }
    }
    return out;
  }

  // ------------------------------------------------------------ transfer

  /// Environment effect of one statement (assignments and for-loop target
  /// bindings; sinks and returns don't change the environment).
  void transfer(const Statement& stmt, Env& env) const {
    if (stmt.is_return || stmt.lhs.empty()) return;
    const ExprTaint v = eval_value(stmt, env);
    if (v.tainted && !v.sanitized) {
      TaintVal t = v.taint;
      t.state = TaintState::kTainted;
      push_step(t.trace, {stmt.line, (stmt.concatenated ? "concatenated into '"
                                                        : "assigned to '") +
                                         stmt.lhs + "'"});
      if (stmt.augmented) {
        const auto it = env.find(stmt.lhs);
        if (it != env.end()) t = join(t, it->second);
      }
      env[stmt.lhs] = std::move(t);
      return;
    }
    if (stmt.augmented) return;  // `q += clean` keeps q's existing taint
    if (v.cleansed) {
      TaintVal t = v.cleansed_taint;
      t.state = TaintState::kSanitized;
      t.sanitizer_note = v.sanitizer_note;
      push_step(t.trace, {stmt.line, v.sanitizer_note + ", assigned to '" +
                                         stmt.lhs + "'"});
      env[stmt.lhs] = std::move(t);
    } else {
      env.erase(stmt.lhs);  // reassignment with a clean value kills taint
    }
  }

  // -------------------------------------------------------------- solver

  /// Round-based worklist fixpoint over the CFG. Returns IN[b] for every
  /// block. Blocks iterate in id order (Gauss–Seidel); convergence is on
  /// the abstract (trace-free) signature of each block's OUT state, with
  /// a round cap as a termination backstop.
  std::vector<Env> solve(const FunctionDef& fn, const Cfg& cfg) const {
    Env entry_env;
    for (const auto& p : fn.params) {
      TaintVal t;
      t.state = TaintState::kTainted;
      t.params = {p};
      t.trace = {{fn.line, "parameter '" + p + "' of " + fn.name + "()"}};
      entry_env.emplace(p, std::move(t));
    }
    const std::size_t n = cfg.blocks.size();
    std::vector<Env> in(n);
    std::vector<Env> out(n);
    std::vector<AbstractEnv> out_sig(n);
    const std::size_t max_rounds = n + 8;
    for (std::size_t round = 0; round < max_rounds; ++round) {
      bool changed = false;
      for (std::size_t b = 0; b < n; ++b) {
        Env env;
        if (static_cast<int>(b) == cfg.entry) {
          env = entry_env;
        } else {
          for (const int pred : cfg.blocks[b].pred) {
            join_env(env, out[static_cast<std::size_t>(pred)]);
          }
        }
        in[b] = env;
        for (const Statement* stmt : cfg.blocks[b].stmts) transfer(*stmt, env);
        AbstractEnv sig = abstract_env(env);
        if (sig != out_sig[b]) {
          changed = true;
          out_sig[b] = std::move(sig);
        }
        out[b] = std::move(env);
      }
      if (!changed) break;
    }
    return in;
  }

  // ------------------------------------------------------------ emission

  void emit_flow(const FunctionDef& fn, const SinkSpec& sink,
                 const ExprTaint& at, int sink_line, bool sanitized,
                 const std::string& sanitizer_note,
                 std::vector<TaintStep> extra_steps,
                 std::vector<TaintFlow>* flows) const {
    if (flows == nullptr) return;
    const bool param_only = !at.taint.from_source;
    if (param_only && at.taint.params.empty()) return;
    TaintFlow flow;
    flow.rule_id = sink.rule_id;
    flow.title = sink.title;
    flow.severity = sink.severity;
    flow.category = sink.category;
    flow.function = fn.name;
    flow.source_line =
        at.taint.trace.empty() ? sink_line : at.taint.trace.front().line;
    flow.sink_line = sink_line;
    flow.trace = at.taint.trace;
    for (auto& step : extra_steps) push_step(flow.trace, std::move(step));
    flow.sanitized = sanitized;
    flow.sanitizer_note = sanitizer_note;
    flow.parameter_dependent = param_only;
    flows->push_back(std::move(flow));
  }

  static void feed_param_sinks(Summary& summary, const std::string& param,
                               const SinkSpec& sink, int sink_line,
                               std::vector<TaintStep> steps) {
    for (const auto& ps : summary.param_sinks) {
      if (ps.param == param && ps.sink->rule_id == sink.rule_id &&
          ps.sink_line == sink_line) {
        return;  // already recorded this round
      }
    }
    summary.param_sinks.push_back(
        Summary::ParamSink{param, &sink, sink_line, std::move(steps)});
  }

  void check_sinks(const FunctionDef& fn, const Statement& stmt,
                   const Env& env, Summary& summary,
                   std::vector<TaintFlow>* flows,
                   std::set<int>* constant_sinks) const {
    for (const auto& call : stmt.calls) {
      const SinkSpec* sink = rules_.match_sink(call.callee, lang_);
      if (sink != nullptr && !call.args.empty()) {
        const std::size_t checked = sink->first_arg_only ? 1 : call.args.size();
        // A SQL sink whose query is a pure literal refutes regex noise.
        if (sink->first_arg_only && constant_sinks != nullptr) {
          const ArgInfo& query = call.args.front();
          if (query.has_string && query.idents.empty() &&
              query.nested_callees.empty()) {
            constant_sinks->insert(call.line);
          }
        }
        bool direct_flow = false;
        for (std::size_t i = 0; i < checked; ++i) {
          const ExprTaint at = eval_arg(call.args[i], call.line, env);
          if (!at.tainted) continue;
          direct_flow |= !at.sanitized;
          if (!at.taint.from_source && !at.sanitized) {
            for (const auto& p : at.taint.params) {
              std::vector<TaintStep> steps = at.taint.trace;
              push_step(steps, {call.line, "reaches " +
                                               to_string(sink->category) +
                                               " sink"});
              feed_param_sinks(summary, p, *sink, call.line, std::move(steps));
            }
          }
          emit_flow(fn, *sink, at, call.line, at.sanitized, at.sanitizer_note,
                    {{call.line, "reaches " + to_string(sink->category) +
                                     " sink " + call.callee + "()"}},
                    flows);
        }
        // Parameter binding: taint in the non-query arguments of a SQL
        // sink is bound, not concatenated — the canonical sanitizer.
        if (sink->first_arg_only && !direct_flow) {
          for (std::size_t i = 1; i < call.args.size(); ++i) {
            const ExprTaint at = eval_arg(call.args[i], call.line, env);
            if (!at.tainted) continue;
            emit_flow(fn, *sink, at, call.line, /*sanitized=*/true,
                      "parameter binding (value bound, not concatenated)",
                      {{call.line, "bound as query parameter of " +
                                       call.callee + "()"}},
                      flows);
          }
        }
      }
      // Interprocedural flow: a tainted value passed into a helper whose
      // summary says that parameter reaches a sink. from_source arguments
      // confirm the flow; parameter-only arguments compose into THIS
      // function's summary — the mechanism that makes 2+-hop chains
      // bottom out at the caller that holds the real source.
      const Summary* callee_summary = summary_for(call.callee);
      const FunctionDef* callee_fn = function_for(call.callee);
      if (callee_summary == nullptr || callee_fn == nullptr) continue;
      const std::size_t n = std::min(call.args.size(), callee_fn->params.size());
      for (std::size_t i = 0; i < n; ++i) {
        const ExprTaint at = eval_arg(call.args[i], call.line, env);
        if (!at.tainted || at.sanitized) continue;
        for (const auto& ps : callee_summary->param_sinks) {
          if (ps.param != callee_fn->params[i]) continue;
          std::vector<TaintStep> steps;
          steps.push_back({call.line, "passed to " + call.callee + "() as '" +
                                          ps.param + "'"});
          for (const auto& s : ps.steps) push_step(steps, s);
          if (!at.taint.from_source) {
            for (const auto& p : at.taint.params) {
              std::vector<TaintStep> composed = at.taint.trace;
              for (const auto& s : steps) push_step(composed, s);
              feed_param_sinks(summary, p, *ps.sink, ps.sink_line,
                               std::move(composed));
            }
          }
          emit_flow(fn, *ps.sink, at, ps.sink_line, /*sanitized=*/false, "",
                    std::move(steps), flows);
        }
      }
    }
  }

  /// Single emission pass: walk blocks in id order, thread each block's
  /// fixpoint IN state through its statements, check sinks and collect the
  /// function's summary. Deterministic by construction.
  void sweep(const FunctionDef& fn, const Cfg& cfg, const std::vector<Env>& in,
             Summary& summary, std::vector<TaintFlow>* flows,
             std::set<int>* constant_sinks) const {
    for (const auto& block : cfg.blocks) {
      Env env = in[static_cast<std::size_t>(block.id)];
      for (const Statement* stmt : block.stmts) {
        check_sinks(fn, *stmt, env, summary, flows, constant_sinks);
        if (stmt->is_return) {
          const ExprTaint v = eval_value(*stmt, env);
          if (v.tainted && !v.sanitized) {
            if (v.taint.from_source) {
              summary.returns_source = true;
              summary.return_taint = v.taint;
              push_step(summary.return_taint.trace,
                        {stmt->line, "returned from " + fn.name + "()"});
            }
            summary.params_returned.insert(v.taint.params.begin(),
                                           v.taint.params.end());
          }
          continue;
        }
        transfer(*stmt, env);
      }
    }
  }

  const ParsedUnit& unit_;
  const TaintRuleSet& rules_;
  Language lang_;
  std::map<std::string, const FunctionDef*> functions_;
  std::map<std::string, Summary> summaries_;
};

/// Confirmed flows shadow parameter-dependent ones on the same sink,
/// duplicates collapse, sanitized parameter flows drop, and output sorts
/// by (sink line, rule).
std::vector<TaintFlow> canonicalize_flows(std::vector<TaintFlow> flows) {
  std::set<std::pair<std::string, int>> confirmed;
  for (const auto& f : flows) {
    if (!f.parameter_dependent && !f.sanitized) {
      confirmed.insert({f.rule_id, f.sink_line});
    }
  }
  std::vector<TaintFlow> out;
  std::set<std::string> seen;
  for (auto& f : flows) {
    if (f.parameter_dependent &&
        (f.sanitized || confirmed.count({f.rule_id, f.sink_line}) != 0)) {
      continue;
    }
    const std::string key = f.rule_id + ":" + std::to_string(f.sink_line) + ":" +
                            std::to_string(f.source_line) + ":" +
                            (f.sanitized ? "s" : "u") +
                            (f.parameter_dependent ? "p" : "c");
    if (!seen.insert(key).second) continue;
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(), [](const TaintFlow& a, const TaintFlow& b) {
    if (a.sink_line != b.sink_line) return a.sink_line < b.sink_line;
    return a.rule_id < b.rule_id;
  });
  return out;
}

}  // namespace

TaintAnalyzer::TaintAnalyzer() : rules_(default_taint_rules()) {}
TaintAnalyzer::TaintAnalyzer(TaintRuleSet rules) : rules_(std::move(rules)) {}

TaintReport TaintAnalyzer::analyze(const SourceFile& file) const {
  const ParsedUnit unit = parse(file);
  FlowEngine engine(unit, rules_, file.language);
  engine.solve_summaries();

  TaintReport report;
  std::vector<TaintFlow> flows;
  for (const auto& fn : unit.functions) {
    for (const auto& stmt : fn.body) {
      if (stmt.truncated) report.unanalyzed_lines.insert(stmt.line);
    }
    FlowEngine::FnResult r = engine.extract(fn);
    for (auto& f : r.flows) flows.push_back(std::move(f));
    report.constant_sink_lines.insert(r.constant_sinks.begin(), r.constant_sinks.end());
  }
  report.flows = canonicalize_flows(std::move(flows));
  return report;
}

}  // namespace genio::appsec::sast
