// Labeled SAST corpora shared by bench_lesson4_scanning (legacy
// accuracy gate) and bench_sast_precision (the taint engine's recall and
// false-positive floors). Every entry is a simulated source file with a
// ground-truth label: does a real, unsanitized injection flow exist?
#pragma once

#include <vector>

#include "genio/appsec/sast/source.hpp"

namespace genio::bench {

/// One corpus entry: a simulated source file with a ground-truth label.
struct LabeledSource {
  const char* name;
  bool vulnerable;  // ground truth: does a real injection flow exist?
  appsec::SourceFile file;
};

/// The straight-line corpus: direct source->sink flows and safe files
/// whose lines still trip the regex rules (precision floor: FP rate stays
/// 0.00, recall stays 1.00).
inline std::vector<LabeledSource> make_legacy_sast_corpus() {
  namespace as = appsec;
  std::vector<LabeledSource> corpus;
  // -- true positives: complete source -> sink flows ------------------------
  corpus.push_back({"direct-concat", true,
                    {"/app/readings.py", as::Language::kPython,
                     "import db\n"
                     "from flask import request\n"
                     "def get_reading():\n"
                     "    sensor = request.args.get(\"sensor_id\")\n"
                     "    query = \"SELECT * FROM readings WHERE id=\" + sensor\n"
                     "    return db.execute(query)\n"}});
  corpus.push_back({"fstring-sink", true,
                    {"/app/users.py", as::Language::kPython,
                     "def lookup():\n"
                     "    uid = request.args.get(\"id\")\n"
                     "    return db.execute(f\"SELECT * FROM users WHERE id={uid}\")\n"}});
  corpus.push_back({"cross-function", true,
                    {"/app/dao.py", as::Language::kPython,
                     "def fetch(uid):\n"
                     "    return db.execute(\"SELECT * FROM t WHERE id=\" + uid)\n"
                     "def handler():\n"
                     "    uid = request.args.get(\"id\")\n"
                     "    return fetch(uid)\n"}});
  corpus.push_back({"java-concat", true,
                    {"/src/Dao.java", as::Language::kJava,
                     "class Dao {\n"
                     "  ResultSet find(HttpServletRequest request) {\n"
                     "    String id = request.getParameter(\"id\");\n"
                     "    String query = \"SELECT * FROM t WHERE id=\" + id;\n"
                     "    return stmt.executeQuery(query);\n"
                     "  }\n"
                     "}\n"}});
  corpus.push_back({"command-injection", true,
                    {"/app/ping.py", as::Language::kPython,
                     "def ping():\n"
                     "    host = request.args.get(\"host\")\n"
                     "    return os.system(\"ping -c1 \" + host)\n"}});
  // -- true negatives that still trip the line regexes ----------------------
  corpus.push_back({"param-bound", false,
                    {"/app/safe1.py", as::Language::kPython,
                     "def get_reading():\n"
                     "    sensor = request.args.get(\"sensor_id\")\n"
                     "    return db.execute(\"SELECT * FROM r WHERE id=%s\", (sensor,))\n"}});
  corpus.push_back({"escaped-value", false,
                    {"/app/safe2.py", as::Language::kPython,
                     "def get_user():\n"
                     "    uid = request.args.get(\"id\")\n"
                     "    safe = db.escape(uid)\n"
                     "    return db.execute(\"SELECT * FROM users WHERE id=\" + safe)\n"}});
  corpus.push_back({"constant-query", false,
                    {"/app/safe3.py", as::Language::kPython,
                     "def active_sensors():\n"
                     "    return db.execute(\"SELECT name FROM sensors WHERE active=%s\","
                     " (\"1\",))\n"}});
  corpus.push_back({"int-coerced", false,
                    {"/app/safe4.py", as::Language::kPython,
                     "def get_by_id():\n"
                     "    uid = int(request.args.get(\"id\"))\n"
                     "    return db.execute(\"SELECT * FROM t WHERE id=%s\" % uid)\n"}});
  return corpus;
}

/// The control-flow corpus: flows whose verdict depends on control flow —
/// branch-dependent sanitization, loop-carried taint, aliasing, 2+-hop
/// helper chains. The engine must confirm all seven vulnerable entries
/// and stay at zero false positives on the five safe ones.
inline std::vector<LabeledSource> make_flow_sast_corpus() {
  namespace as = appsec;
  std::vector<LabeledSource> corpus;
  // -- vulnerable: the sanitizer runs on only one path ----------------------
  corpus.push_back({"branch-else-unsanitized", true,
                    {"/app/find.py", as::Language::kPython,
                     "def find(mode):\n"
                     "    x = request.args.get(\"id\")\n"
                     "    if mode:\n"
                     "        x = db.escape(x)\n"
                     "    return db.execute(\"SELECT * FROM t WHERE id='\" + x + \"'\")\n"}});
  corpus.push_back({"alias-branch", true,
                    {"/app/pick.py", as::Language::kPython,
                     "def pick(flag):\n"
                     "    a = request.args.get(\"name\")\n"
                     "    if flag:\n"
                     "        b = a\n"
                     "    else:\n"
                     "        b = \"none\"\n"
                     "    return db.execute(\"SELECT * FROM t WHERE name='\" + b + \"'\")\n"}});
  // -- vulnerable: taint is carried around a loop back edge -----------------
  corpus.push_back({"loop-carried", true,
                    {"/app/pump.py", as::Language::kPython,
                     "def pump(running):\n"
                     "    q = \"SELECT id FROM t WHERE tag='\"\n"
                     "    while running:\n"
                     "        db.execute(q + \"'\")\n"
                     "        q = q + request.args.get(\"tag\")\n"}});
  // -- vulnerable: source -> relay -> store, two hops to the sink -----------
  corpus.push_back({"multi-hop", true,
                    {"/app/ingest.py", as::Language::kPython,
                     "def store(v):\n"
                     "    db.execute(\"INSERT INTO t VALUES ('\" + v + \"')\")\n"
                     "def relay(v):\n"
                     "    store(v)\n"
                     "def ingest():\n"
                     "    raw = request.args.get(\"data\")\n"
                     "    relay(raw)\n"}});
  corpus.push_back({"java-branch", true,
                    {"/src/Lookup.java", as::Language::kJava,
                     "class Lookup {\n"
                     "  ResultSet find(HttpServletRequest req) {\n"
                     "    String q = req.getParameter(\"q\");\n"
                     "    if (cached) {\n"
                     "      q = Encoder.encodeForSQL(q);\n"
                     "    }\n"
                     "    return stmt.executeQuery(\"SELECT * FROM t WHERE q='\" + q + \"'\");\n"
                     "  }\n"
                     "}\n"}});
  // -- vulnerable: straight aliasing and a sink after the loop, which a
  //    statement-order walk also confirms.
  corpus.push_back({"alias-flow", true,
                    {"/app/alias.py", as::Language::kPython,
                     "def alias():\n"
                     "    a = request.args.get(\"x\")\n"
                     "    b = a\n"
                     "    return db.execute(\"SELECT * FROM t WHERE x='\" + b + \"'\")\n"}});
  corpus.push_back({"loop-accumulate", true,
                    {"/app/build.py", as::Language::kPython,
                     "def build(tags):\n"
                     "    q = \"SELECT name FROM t WHERE tag IN (\"\n"
                     "    for tag in tags:\n"
                     "        q = q + request.args.get(\"tag\")\n"
                     "    return db.execute(q + \")\")\n"}});
  // -- safe: every path sanitizes before the sink ---------------------------
  corpus.push_back({"both-paths-sanitized", false,
                    {"/app/fetch.py", as::Language::kPython,
                     "def fetch(strict):\n"
                     "    x = request.args.get(\"id\")\n"
                     "    if strict:\n"
                     "        x = db.escape(x)\n"
                     "    else:\n"
                     "        x = db.sanitize(x)\n"
                     "    return db.execute(\"SELECT * FROM t WHERE id='\" + x + \"'\")\n"}});
  corpus.push_back({"loop-sanitized", false,
                    {"/app/report.py", as::Language::kPython,
                     "def report(tags):\n"
                     "    q = \"SELECT name FROM t WHERE tag IN (\"\n"
                     "    for tag in tags:\n"
                     "        q = q + db.escape(request.args.get(\"tag\"))\n"
                     "    return db.execute(q + \")\")\n"}});
  corpus.push_back({"guarded-early-return", false,
                    {"/app/lookup.py", as::Language::kPython,
                     "def lookup():\n"
                     "    raw = request.args.get(\"n\")\n"
                     "    if not raw:\n"
                     "        return \"missing\"\n"
                     "    n = int(raw)\n"
                     "    return db.execute(\"SELECT * FROM t WHERE n=\" + n)\n"}});
  // -- safe: helper binds the value instead of concatenating it -------------
  corpus.push_back({"multi-hop-bound", false,
                    {"/app/run.py", as::Language::kPython,
                     "def run(val):\n"
                     "    db.execute(\"SELECT name FROM t WHERE q=%s\", (val,))\n"
                     "def handler():\n"
                     "    u = request.args.get(\"q\")\n"
                     "    run(u)\n"}});
  corpus.push_back({"java-sanitized-loop", false,
                    {"/src/Repo.java", as::Language::kJava,
                     "class Repo {\n"
                     "  void tail(HttpServletRequest req) {\n"
                     "    String q = Encoder.encodeForSQL(req.getParameter(\"q\"));\n"
                     "    while (retry) {\n"
                     "      stmt.executeQuery(\"SELECT * FROM t WHERE q='\" + q + \"'\");\n"
                     "    }\n"
                     "  }\n"
                     "}\n"}});
  return corpus;
}

}  // namespace genio::bench
