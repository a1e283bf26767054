// Tests for the M14v3 flow-sensitive taint engine: parser edge cases that
// feed the CFG (nested if/else with early return, elif chains, loop
// break/continue, multi-line call arguments), CFG lowering shape, the
// worklist dataflow verdicts (branch-dependent sanitization, loop-carried
// taint, multi-hop chains, recursion), dotted-segment callee matching, the
// audit confidence tier, serial/parallel determinism, and the fail-closed
// caps on call and block nesting.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "genio/appsec/sast.hpp"
#include "genio/appsec/sast/cfg.hpp"
#include "genio/appsec/sast/parser.hpp"
#include "genio/appsec/sast/taint.hpp"
#include "genio/common/thread_pool.hpp"

namespace as = genio::appsec;
namespace sast = genio::appsec::sast;
namespace gc = genio::common;

namespace {

as::SourceFile py(const std::string& content, const char* path = "/app/t.py") {
  return {path, as::Language::kPython, content};
}

as::SourceFile java(const std::string& content) {
  return {"/src/T.java", as::Language::kJava, content};
}

const sast::Statement* stmt_on_line(const sast::FunctionDef& fn, int line) {
  for (const auto& s : fn.body) {
    if (s.line == line) return &s;
  }
  return nullptr;
}

/// Confirmed = complete unsanitized trace, the kHigh tier.
bool has_confirmed(const sast::TaintReport& report) {
  for (const auto& f : report.flows) {
    if (!f.sanitized && !f.parameter_dependent) return true;
  }
  return false;
}

std::string render_findings(const std::vector<as::SastFinding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += f.rule_id + "@" + f.path + ":" + std::to_string(f.line) + "/" +
           as::to_string(f.confidence) + "{" + as::render_trace(f.trace) + "}" +
           f.detail + "\n";
  }
  return out;
}

std::string render_flows(const sast::TaintReport& report) {
  std::string out;
  for (const auto& f : report.flows) {
    out += f.rule_id + "@" + std::to_string(f.sink_line) +
           (f.sanitized ? "/s" : "") + (f.parameter_dependent ? "/p" : "") +
           "{" + as::render_trace(f.trace) + "}";
  }
  return out;
}

}  // namespace

// ------------------------------------------------------- parser edge cases

TEST(SastParser, NestedIfElseWithEarlyReturn) {
  const auto unit = sast::parse(py("def gate(x):\n"           // L1
                                   "    if x:\n"              // L2
                                   "        if x > 2:\n"      // L3
                                   "            return x\n"   // L4
                                   "        y = 1\n"          // L5
                                   "    else:\n"              // L6
                                   "        y = 2\n"          // L7
                                   "    return y\n"));        // L8
  const auto* fn = unit.function("gate");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->body.size(), 7u);
  EXPECT_EQ(stmt_on_line(*fn, 2)->kind, sast::StmtKind::kIf);
  EXPECT_EQ(stmt_on_line(*fn, 2)->block, 0);
  EXPECT_EQ(stmt_on_line(*fn, 3)->kind, sast::StmtKind::kIf);
  EXPECT_EQ(stmt_on_line(*fn, 3)->block, 1);  // nested one level down
  EXPECT_EQ(stmt_on_line(*fn, 4)->kind, sast::StmtKind::kReturn);
  EXPECT_EQ(stmt_on_line(*fn, 4)->block, 2);
  EXPECT_EQ(stmt_on_line(*fn, 5)->block, 1);  // dedent back to outer body
  EXPECT_EQ(stmt_on_line(*fn, 6)->kind, sast::StmtKind::kElse);
  EXPECT_EQ(stmt_on_line(*fn, 6)->block, 0);
  EXPECT_EQ(stmt_on_line(*fn, 8)->kind, sast::StmtKind::kReturn);
  EXPECT_EQ(stmt_on_line(*fn, 8)->block, 0);
}

TEST(SastParser, ElifChainKeepsDepthAndKinds) {
  const auto unit = sast::parse(py("def pick(n):\n"
                                   "    if n == 1:\n"
                                   "        r = 1\n"
                                   "    elif n == 2:\n"
                                   "        r = 2\n"
                                   "    elif n == 3:\n"
                                   "        r = 3\n"
                                   "    else:\n"
                                   "        r = 0\n"
                                   "    return r\n"));
  const auto* fn = unit.function("pick");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(stmt_on_line(*fn, 2)->kind, sast::StmtKind::kIf);
  EXPECT_EQ(stmt_on_line(*fn, 4)->kind, sast::StmtKind::kElif);
  EXPECT_EQ(stmt_on_line(*fn, 6)->kind, sast::StmtKind::kElif);
  EXPECT_EQ(stmt_on_line(*fn, 8)->kind, sast::StmtKind::kElse);
  // All arms of the chain sit at the function's top-level depth; every
  // governed assignment sits one deeper.
  for (const int header : {2, 4, 6, 8}) {
    EXPECT_EQ(stmt_on_line(*fn, header)->block, 0) << "line " << header;
    EXPECT_EQ(stmt_on_line(*fn, header + 1)->block, 1) << "line " << header + 1;
  }
}

TEST(SastParser, LoopBreakContinueKinds) {
  const auto unit = sast::parse(py("def scan(items):\n"
                                   "    for item in items:\n"
                                   "        if item == 0:\n"
                                   "            continue\n"
                                   "        if item < 0:\n"
                                   "            break\n"
                                   "        total = total + item\n"
                                   "    while total:\n"
                                   "        total = total - 1\n"));
  const auto* fn = unit.function("scan");
  ASSERT_NE(fn, nullptr);
  const auto* loop = stmt_on_line(*fn, 2);
  EXPECT_EQ(loop->kind, sast::StmtKind::kFor);
  EXPECT_EQ(loop->lhs, "item");  // Python for-target lands in lhs
  EXPECT_EQ(stmt_on_line(*fn, 4)->kind, sast::StmtKind::kContinue);
  EXPECT_EQ(stmt_on_line(*fn, 6)->kind, sast::StmtKind::kBreak);
  EXPECT_EQ(stmt_on_line(*fn, 8)->kind, sast::StmtKind::kWhile);
  EXPECT_EQ(stmt_on_line(*fn, 8)->block, 0);  // dedents out of the for body
}

TEST(SastParser, MultiLineCallArgumentsStayOneStatement) {
  // Open parens suppress the newline statement break, so the call keeps
  // all three arguments and the statement anchors at the first line.
  const auto unit = sast::parse(py("def save(v):\n"
                                   "    db.execute(\n"
                                   "        \"INSERT INTO t VALUES (%s)\",\n"
                                   "        (v,),\n"
                                   "    )\n"));
  const auto* fn = unit.function("save");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->body.size(), 1u);
  const sast::Statement& call_stmt = fn->body[0];
  EXPECT_EQ(call_stmt.line, 2);
  ASSERT_EQ(call_stmt.calls.size(), 1u);
  EXPECT_EQ(call_stmt.calls[0].callee, "db.execute");
  ASSERT_EQ(call_stmt.calls[0].args.size(), 2u);
  EXPECT_TRUE(call_stmt.calls[0].args[0].has_string);
  ASSERT_EQ(call_stmt.calls[0].args[1].idents.size(), 1u);
  EXPECT_EQ(call_stmt.calls[0].args[1].idents[0], "v");
}

// ------------------------------------------------------------ CFG lowering

TEST(SastCfg, StraightLineIsEntryThenExit) {
  const auto unit = sast::parse(py("def f(a):\n"
                                   "    b = a\n"
                                   "    return b\n"));
  const auto cfg = sast::build_cfg(*unit.function("f"));
  // Entry holds both statements; the return edges straight to exit.
  ASSERT_GE(cfg.blocks.size(), 2u);
  EXPECT_EQ(cfg.blocks[cfg.entry].stmts.size(), 2u);
  ASSERT_EQ(cfg.blocks[cfg.entry].succ.size(), 1u);
  EXPECT_EQ(cfg.blocks[cfg.entry].succ[0], cfg.exit);
}

TEST(SastCfg, IfElseFormsDiamond) {
  const auto unit = sast::parse(py("def f(a):\n"
                                   "    if a:\n"
                                   "        x = 1\n"
                                   "    else:\n"
                                   "        x = 2\n"
                                   "    return x\n"));
  const auto cfg = sast::build_cfg(*unit.function("f"));
  const std::string rendered = sast::render_cfg(cfg);
  // The condition block fans out to both arms and the join block has two
  // predecessors: classic diamond.
  int two_succ = 0, two_pred = 0;
  for (const auto& b : cfg.blocks) {
    if (b.succ.size() == 2) ++two_succ;
    if (b.pred.size() == 2) ++two_pred;
  }
  EXPECT_EQ(two_succ, 1) << rendered;
  EXPECT_GE(two_pred, 1) << rendered;
}

TEST(SastCfg, WhileLoopHasBackEdgeAndZeroIterationEdge) {
  const auto unit = sast::parse(py("def f(n):\n"
                                   "    while n:\n"
                                   "        n = n - 1\n"
                                   "    return n\n"));
  const auto cfg = sast::build_cfg(*unit.function("f"));
  const std::string rendered = sast::render_cfg(cfg);
  int header = -1;
  for (const auto& b : cfg.blocks) {
    if (b.loop_header) header = b.id;
  }
  ASSERT_NE(header, -1) << rendered;
  // Back edge: some successor of the header's body path returns to the
  // header, so the header has >= 2 predecessors (entry + back edge).
  EXPECT_GE(cfg.blocks[header].pred.size(), 2u) << rendered;
  // Zero-iteration edge: the header can bypass the body entirely.
  EXPECT_EQ(cfg.blocks[header].succ.size(), 2u) << rendered;
}

TEST(SastCfg, EarlyReturnEdgesToExitAndDeadCodeHasNoPreds) {
  const auto unit = sast::parse(py("def f(a):\n"
                                   "    return a\n"
                                   "    b = 1\n"));
  const auto cfg = sast::build_cfg(*unit.function("f"));
  // The statement after the return is unreachable: its block has no
  // predecessors, so the solver treats it as dead.
  bool found_dead = false;
  for (const auto& b : cfg.blocks) {
    for (const auto* s : b.stmts) {
      if (s->line == 3) found_dead = b.pred.empty();
    }
  }
  EXPECT_TRUE(found_dead) << sast::render_cfg(cfg);
  EXPECT_FALSE(cfg.blocks[cfg.exit].pred.empty());
}

// ------------------------------------------------- flow-sensitive verdicts

TEST(SastFlow, SanitizerOnOnlyOneBranchStaysTainted) {
  sast::TaintAnalyzer analyzer;
  const auto report = analyzer.analyze(py("def find(mode):\n"
                                          "    x = request.args.get(\"id\")\n"
                                          "    if mode:\n"
                                          "        x = db.escape(x)\n"
                                          "    return db.execute(\"SELECT * FROM t WHERE id='\" + x + \"'\")\n"));
  ASSERT_TRUE(has_confirmed(report)) << render_flows(report);
  EXPECT_EQ(report.flows.front().sink_line, 5);
  EXPECT_EQ(report.flows.front().source_line, 2);
}

TEST(SastFlow, SanitizerOnEveryBranchNeutralizes) {
  sast::TaintAnalyzer analyzer;
  const auto report = analyzer.analyze(py("def fetch(strict):\n"
                                          "    x = request.args.get(\"id\")\n"
                                          "    if strict:\n"
                                          "        x = db.escape(x)\n"
                                          "    else:\n"
                                          "        x = db.sanitize(x)\n"
                                          "    return db.execute(\"SELECT * FROM t WHERE id='\" + x + \"'\")\n"));
  EXPECT_FALSE(has_confirmed(report)) << render_flows(report);
  // The neutralized flow is still traced for audit.
  ASSERT_FALSE(report.flows.empty());
  EXPECT_TRUE(report.flows.front().sanitized);
  EXPECT_FALSE(report.flows.front().sanitizer_note.empty());
}

TEST(SastFlow, LoopCarriedTaintReachesSinkViaBackEdge) {
  // The sink runs before the source in textual order; only the loop back
  // edge carries the taint into the next iteration's sink.
  sast::TaintAnalyzer analyzer;
  const auto report = analyzer.analyze(py("def pump(running):\n"
                                          "    q = \"SELECT id FROM t WHERE tag='\"\n"
                                          "    while running:\n"
                                          "        db.execute(q + \"'\")\n"
                                          "        q = q + request.args.get(\"tag\")\n"));
  ASSERT_TRUE(has_confirmed(report)) << render_flows(report);
  EXPECT_EQ(report.flows.front().sink_line, 4);
  EXPECT_EQ(report.flows.front().source_line, 5);
}

TEST(SastFlow, TwoHopChainTracesEndToEnd) {
  sast::TaintAnalyzer analyzer;
  const auto report = analyzer.analyze(py("def store(v):\n"
                                          "    db.execute(\"INSERT INTO t VALUES ('\" + v + \"')\")\n"
                                          "def relay(v):\n"
                                          "    store(v)\n"
                                          "def ingest():\n"
                                          "    raw = request.args.get(\"data\")\n"
                                          "    relay(raw)\n"));
  const sast::TaintFlow* confirmed = nullptr;
  for (const auto& f : report.flows) {
    if (!f.sanitized && !f.parameter_dependent) confirmed = &f;
  }
  ASSERT_NE(confirmed, nullptr) << render_flows(report);
  EXPECT_EQ(confirmed->source_line, 6);  // source in ingest()
  EXPECT_EQ(confirmed->sink_line, 2);    // sink two hops down in store()
  // The trace names both hops of the chain.
  bool via_relay = false, via_store = false;
  for (const auto& step : confirmed->trace) {
    via_relay |= step.note.find("relay()") != std::string::npos;
    via_store |= step.note.find("store()") != std::string::npos;
  }
  EXPECT_TRUE(via_relay) << render_flows(report);
  EXPECT_TRUE(via_store) << render_flows(report);
}

TEST(SastFlow, RecursiveHelperTerminatesAtFixpoint) {
  sast::TaintAnalyzer analyzer;
  // Mutually recursive helpers must not loop the summary solver forever;
  // the flow through the recursion is still confirmed.
  const auto report = analyzer.analyze(py("def ping(v, n):\n"
                                          "    if n:\n"
                                          "        pong(v, n)\n"
                                          "    db.execute(\"SELECT '\" + v + \"'\")\n"
                                          "def pong(v, n):\n"
                                          "    ping(v, 0)\n"
                                          "def entry():\n"
                                          "    raw = request.args.get(\"x\")\n"
                                          "    ping(raw, 1)\n"));
  EXPECT_TRUE(has_confirmed(report)) << render_flows(report);
}

TEST(SastFlow, JavaBranchSanitizedOnOnePathOnly) {
  sast::TaintAnalyzer analyzer;
  const auto report =
      analyzer.analyze(java("class Lookup {\n"
                            "  ResultSet find(HttpServletRequest req) {\n"
                            "    String q = req.getParameter(\"q\");\n"
                            "    if (cached) {\n"
                            "      q = Encoder.encodeForSQL(q);\n"
                            "    }\n"
                            "    return stmt.executeQuery(\"SELECT * FROM t WHERE q='\" + q + \"'\");\n"
                            "  }\n"
                            "}\n"));
  EXPECT_TRUE(has_confirmed(report)) << render_flows(report);
}

TEST(SastFlow, GuardedEarlyReturnWithCoercionIsSafe) {
  sast::TaintAnalyzer analyzer;
  const auto report = analyzer.analyze(py("def lookup():\n"
                                          "    raw = request.args.get(\"n\")\n"
                                          "    if not raw:\n"
                                          "        return \"missing\"\n"
                                          "    n = int(raw)\n"
                                          "    return db.execute(\"SELECT * FROM t WHERE n=\" + n)\n"));
  EXPECT_FALSE(has_confirmed(report)) << render_flows(report);
}

// -------------------------------------------------- callee pattern matching

TEST(SastCallees, SuffixMatchesWholeSegmentsOnly) {
  // Segment-boundary regressions: a pattern must never match inside an
  // identifier segment.
  EXPECT_FALSE(sast::callee_matches("retrieval", "eval"));
  EXPECT_FALSE(sast::callee_matches("medieval", "eval"));
  EXPECT_FALSE(sast::callee_matches("myargs.get", "args.get"));
  EXPECT_TRUE(sast::callee_matches("eval", "eval"));
  EXPECT_TRUE(sast::callee_matches("builtins.eval", "eval"));
  EXPECT_TRUE(sast::callee_matches("request.args.get", "args.get"));
  EXPECT_TRUE(sast::callee_matches("flask.request.args.get", "request.args.get"));
  EXPECT_FALSE(sast::callee_matches("args.get", "request.args.get"));
}

TEST(SastCallees, MatchingFoldsCaseAndRejectsEmptyPattern) {
  EXPECT_TRUE(sast::callee_matches("Stmt.ExecuteQuery", "executequery"));
  EXPECT_TRUE(sast::callee_matches("db.execute", "DB.EXECUTE"));
  EXPECT_FALSE(sast::callee_matches("db.execute", ""));
  EXPECT_FALSE(sast::callee_matches("", "eval"));
}

TEST(SastCallees, LastDottedSegment) {
  EXPECT_EQ(sast::last_dotted_segment("db.execute"), "execute");
  EXPECT_EQ(sast::last_dotted_segment("plain"), "plain");
  EXPECT_EQ(sast::last_dotted_segment("a.b.c"), "c");
}

TEST(SastCallees, EvalSinkIgnoresRetrievalCall) {
  // End-to-end: 'retrieval(...)' on tainted data must not raise the
  // TAINT-EVAL rule that pattern 'eval' anchors.
  sast::TaintAnalyzer analyzer;
  const auto report = analyzer.analyze(py("def f():\n"
                                          "    x = request.args.get(\"q\")\n"
                                          "    return retrieval(x)\n"));
  for (const auto& flow : report.flows) {
    EXPECT_NE(flow.rule_id, "TAINT-EVAL") << render_flows(report);
  }
}

// ------------------------------------------------------ tiers, determinism

TEST(SastFlow, SanitizedFlowReportsAsAuditTier) {
  as::SastEngine engine = as::make_default_sast_engine();
  const auto findings = engine.analyze(py("def fetch():\n"
                                          "    x = request.args.get(\"id\")\n"
                                          "    x = db.escape(x)\n"
                                          "    return db.execute(\"SELECT * FROM t WHERE id='\" + x + \"'\")\n"));
  const as::SastFinding* audit = nullptr;
  for (const auto& f : findings) {
    if (f.rule_id == "TAINT-SQLI") audit = &f;
  }
  ASSERT_NE(audit, nullptr);
  EXPECT_EQ(audit->confidence, as::Confidence::kAudit);
  EXPECT_EQ(as::to_string(audit->confidence), "audit");
  EXPECT_FALSE(as::SastEngine::is_actionable(*audit));
  EXPECT_NE(audit->detail.find("audit-only"), std::string::npos);
  EXPECT_EQ(as::SastEngine::count_confirmed(findings), 0u);
}

TEST(SastFlow, ParallelShardMatchesSerialByteForByte) {
  const std::vector<as::SourceFile> corpus = {
      py("def find(mode):\n"
         "    x = request.args.get(\"id\")\n"
         "    if mode:\n"
         "        x = db.escape(x)\n"
         "    return db.execute(\"SELECT * FROM t WHERE id='\" + x + \"'\")\n",
         "/app/find.py"),
      py("def store(v):\n"
         "    db.execute(\"INSERT INTO t VALUES ('\" + v + \"')\")\n"
         "def ingest():\n"
         "    raw = request.args.get(\"data\")\n"
         "    store(raw)\n",
         "/app/ingest.py"),
      java("class Repo {\n"
           "  void tail(HttpServletRequest req) {\n"
           "    String q = Encoder.encodeForSQL(req.getParameter(\"q\"));\n"
           "    while (retry) {\n"
           "      stmt.executeQuery(\"SELECT * FROM t WHERE q='\" + q + \"'\");\n"
           "    }\n"
           "  }\n"
           "}\n"),
  };
  // One list, so analyze_all shards the three files across the pool.
  const as::SastEngine serial = as::make_default_sast_engine();
  gc::ThreadPool pool(4);
  as::SastEngine sharded = as::make_default_sast_engine();
  sharded.set_thread_pool(&pool);
  const std::string expected = render_findings(serial.analyze_all(corpus));
  EXPECT_NE(expected.find("/app/ingest.py"), std::string::npos) << expected;
  EXPECT_EQ(expected, render_findings(sharded.analyze_all(corpus)));
}

// ------------------------------------------------------- adversarial input

namespace {

/// `return db.execute(g(g(...g(request.args.get("id"))...)))` with `depth`
/// wrappers around the source.
as::SourceFile nested_source_file(int depth) {
  std::string content = "def f():\n    return db.execute(";
  for (int i = 0; i < depth; ++i) content += "g(";
  content += "request.args.get(\"id\")";
  content.append(static_cast<std::size_t>(depth), ')');
  content += ")\n";
  return py(content);
}

/// A Java method whose tainted query runs inside `depth` nested
/// `if (a) {` blocks, on line depth + 4.
as::SourceFile nested_blocks_file(int depth) {
  std::string content =
      "class Lookup {\n"
      "  ResultSet find(HttpServletRequest req) {\n"
      "    String q = req.getParameter(\"q\");\n";
  for (int i = 0; i < depth; ++i) content += "if (a) {\n";
  content += "stmt.executeQuery(\"SELECT * FROM t WHERE q='\" + q + \"'\");\n";
  content.append(static_cast<std::size_t>(depth), '}');
  content += "\n  }\n}\n";
  return java(content);
}

const as::SastFinding* find_rule(const std::vector<as::SastFinding>& findings,
                                 const std::string& rule_id) {
  for (const auto& f : findings) {
    if (f.rule_id == rule_id) return &f;
  }
  return nullptr;
}

}  // namespace

TEST(SastFlow, CallNestingIsTracedUpToTheCapAndFlaggedPastIt) {
  // execute() is level 1, so with kMaxCallNesting - 2 wrappers the source
  // call sits exactly at the cap and the flow is confirmed.
  const as::SourceFile at_cap = nested_source_file(sast::kMaxCallNesting - 2);
  const auto traced = sast::TaintAnalyzer().analyze(at_cap);
  EXPECT_TRUE(has_confirmed(traced)) << render_flows(traced);
  EXPECT_TRUE(traced.unanalyzed_lines.empty());
  EXPECT_EQ(find_rule(as::make_default_sast_engine().analyze(at_cap), "TAINT-DEPTH"),
            nullptr);

  // One level deeper the source is past the cap: the statement is
  // flagged rather than silently dropped.
  const auto past =
      sast::TaintAnalyzer().analyze(nested_source_file(sast::kMaxCallNesting - 1));
  EXPECT_FALSE(has_confirmed(past));
  EXPECT_EQ(past.unanalyzed_lines, std::set<int>{2});
}

TEST(SastFlow, HundredThousandNestedCallsReturnAndBlockTheGate) {
  // One tenant line of 100,000 nested calls. Recursing once per level
  // would overflow the stack; the capped walk returns, and the file gets a
  // critical actionable finding, so the SAST gate fails closed.
  const auto findings =
      as::make_default_sast_engine().analyze(nested_source_file(100000));
  const as::SastFinding* depth = find_rule(findings, "TAINT-DEPTH");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->line, 2);
  EXPECT_EQ(depth->severity, "critical");
  EXPECT_TRUE(as::SastEngine::is_actionable(*depth));
}

TEST(SastFlow, BlockNestingIsLoweredUpToTheCapAndFlaggedPastIt) {
  // The sink sits kMaxBlockNesting blocks deep: it is lowered into the CFG
  // and the flow is confirmed.
  const auto at_cap = sast::TaintAnalyzer().analyze(nested_blocks_file(sast::kMaxBlockNesting));
  EXPECT_TRUE(has_confirmed(at_cap)) << render_flows(at_cap);
  EXPECT_TRUE(at_cap.unanalyzed_lines.empty());

  // One block deeper the sink is past the cap: it is left out of the CFG,
  // and its statement is flagged rather than silently dropped.
  const int deeper = sast::kMaxBlockNesting + 1;
  const auto past = sast::TaintAnalyzer().analyze(nested_blocks_file(deeper));
  EXPECT_FALSE(has_confirmed(past));
  EXPECT_EQ(past.unanalyzed_lines, std::set<int>{deeper + 4});
  const auto findings =
      as::make_default_sast_engine().analyze(nested_blocks_file(deeper));
  const as::SastFinding* depth = find_rule(findings, "TAINT-DEPTH");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->line, deeper + 4);
}

TEST(SastFlow, HundredThousandNestedBlocksReturnAndBlockTheGate) {
  // 100,000 nested blocks (about 1 MB). Building, lowering or destroying the
  // block tree one recursion per level would overflow the stack; capped, the
  // scan returns, and the file gets a critical actionable finding, so the
  // SAST gate fails closed.
  const auto findings = as::make_default_sast_engine().analyze(nested_blocks_file(100000));
  const as::SastFinding* depth = find_rule(findings, "TAINT-DEPTH");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->severity, "critical");
  EXPECT_TRUE(as::SastEngine::is_actionable(*depth));
  // One finding for the region past the cap: the `if` one level past it.
  EXPECT_EQ(depth->line, sast::kMaxBlockNesting + 5);
  EXPECT_EQ(std::count_if(findings.begin(), findings.end(),
                          [](const as::SastFinding& f) { return f.rule_id == "TAINT-DEPTH"; }),
            1);
}
