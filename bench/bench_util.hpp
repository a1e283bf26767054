// The one harness every bench binary uses: command-line flags, the build
// facts a floor depends on, one timer, one pass/fail gate, one JSON writer
// with a common header, and one reader that turns a BENCH_*.json back into
// numbers. Also the LPT model that prices a sharded run from its measured
// serial leaves.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "genio/common/result.hpp"
#include "genio/crypto/cpu.hpp"

namespace genio::bench {

// ------------------------------------------------------------ build facts

#if defined(__has_feature)
#define GENIO_BENCH_HAS_FEATURE(x) __has_feature(x)
#else
#define GENIO_BENCH_HAS_FEATURE(x) 0
#endif

/// Sanitizer instrumentation distorts relative path costs, so speed floors
/// are reported but not enforced on such builds; identity checks still are.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || \
    GENIO_BENCH_HAS_FEATURE(thread_sanitizer) || GENIO_BENCH_HAS_FEATURE(address_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#undef GENIO_BENCH_HAS_FEATURE

#if defined(__OPTIMIZE__)
inline constexpr bool kOptimized = true;
#else
inline constexpr bool kOptimized = false;
#endif

// ------------------------------------------------------------------ flags

/// `--smoke` and `--out PATH`; other arguments are ignored. `out` defaults
/// to the bench's own BENCH_*.json name.
struct Args {
  bool smoke = false;
  std::string out;
};

inline Args parse_args(int argc, char** argv, std::string default_out = {}) {
  Args args{false, std::move(default_out)};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") args.smoke = true;
    if (arg == "--out" && i + 1 < argc) args.out = argv[++i];
  }
  return args;
}

// ------------------------------------------------------------------ timing

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Spread {
  double median = 0, q1 = 0, q3 = 0, min = 0;
};

/// Nearest-rank quantile of a non-empty sample.
inline double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

/// Median, quartiles (nearest rank) and minimum of a non-empty sample.
inline Spread spread(const std::vector<double>& xs) {
  return {quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75),
          *std::min_element(xs.begin(), xs.end())};
}

/// Keeps the compiler from discarding a computed value.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// The bench timer: `fn` runs `warmup` times untimed, then `reps` timed
/// blocks of `calls` runs each. Returns the Spread of seconds per call over
/// the blocks. `fn` may take the running call index (0, 1, ... across the
/// warm-up and every block), e.g. to walk a corpus.
template <typename Fn>
Spread time_calls(int warmup, int reps, int calls, Fn&& fn) {
  int k = 0;
  const auto call = [&] {
    if constexpr (std::is_invocable_v<Fn&, int>) {
      fn(k++);
    } else {
      fn();
    }
  };
  for (int w = 0; w < warmup; ++w) call();
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (int c = 0; c < calls; ++c) call();
    per_call.push_back(seconds_since(start) / calls);
  }
  return spread(per_call);
}

/// Timed repetitions per row of the lesson benches.
inline constexpr int kRowReps = 7;

/// "670.3 MB/s": `units` per call over the median time per call.
inline std::string rate(double units, const Spread& per_call, const char* unit, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f %s/s", decimals, units / per_call.median, unit);
  return buf;
}

/// One timed row of a lesson bench: name, median [q1, q3] per call in the
/// unit that suits the median, note.
inline void print_row(const std::string& name, const Spread& s, const std::string& note = {}) {
  const double scale = s.median < 1e-6 ? 1e9 : s.median < 1e-3 ? 1e6 : s.median < 1 ? 1e3 : 1;
  const char* unit = s.median < 1e-6 ? "ns" : s.median < 1e-3 ? "us" : s.median < 1 ? "ms" : "s";
  char text[64];
  std::snprintf(text, sizeof(text), "%.4g [%.4g, %.4g] %s", s.median * scale, s.q1 * scale,
                s.q3 * scale, unit);
  std::printf("  %-40s %-28s %s\n", name.c_str(), text, note.c_str());
}

/// LPT-greedy makespan: each leaf, longest first, goes to the least-loaded
/// of `workers` identical workers (at least one). This is the modeled wall
/// clock of a sharded run on a w-way host.
inline double lpt_makespan(std::vector<double> leaves, std::size_t workers) {
  std::sort(leaves.begin(), leaves.end(), std::greater<>());
  std::vector<double> load(std::max<std::size_t>(workers, 1), 0.0);
  for (const double leaf : leaves) {
    *std::min_element(load.begin(), load.end()) += leaf;
  }
  return *std::max_element(load.begin(), load.end());
}

// -------------------------------------------------------------------- gate

/// How a Gate prints one check: the outcome's prefix, what, its suffix. A
/// null prefix prints nothing for that outcome.
struct GateStyle {
  const char *pass, *pass_suffix, *fail, *fail_suffix;
  bool fail_on_stderr = false;
};
/// "INVARIANT VIOLATED: what" on stderr, only for a failed check.
inline constexpr GateStyle kInvariants{nullptr, "", "INVARIANT VIOLATED: ", "", true};
/// "  [ok] what" or "  [VIOLATED] what".
inline constexpr GateStyle kChecklist{"  [ok] ", "", "  [VIOLATED] ", ""};
/// "PASS what" or "FAIL what".
inline constexpr GateStyle kPassFail{"PASS ", "", "FAIL ", ""};
/// "what — holds" or "what — VIOLATED" (the paper benches' shape checks).
inline constexpr GateStyle kVerdict{"", " — holds", "", " — VIOLATED"};
/// "FAIL: what", only for a failed check.
inline constexpr GateStyle kFailLines{nullptr, "", "FAIL: ", ""};

/// Pass/fail bookkeeping: every check prints in the bench's own wording,
/// and any failed check makes exit_code() nonzero.
class Gate {
 public:
  explicit Gate(std::initializer_list<GateStyle> styles) : styles_(styles) {}

  bool check(bool ok, const std::string& what) {
    for (const GateStyle& style : styles_) {
      const char* prefix = ok ? style.pass : style.fail;
      if (prefix == nullptr) continue;
      std::fprintf(!ok && style.fail_on_stderr ? stderr : stdout, "%s%s%s\n", prefix,
                   what.c_str(), ok ? style.pass_suffix : style.fail_suffix);
    }
    checks_.emplace_back(what, ok);
    ok_ = ok_ && ok;
    return ok;
  }

  bool ok() const { return ok_; }
  int exit_code() const { return ok_ ? 0 : 1; }
  /// Every check so far, in order: (what, held).
  const std::vector<std::pair<std::string, bool>>& checks() const { return checks_; }

 private:
  std::vector<GateStyle> styles_;
  std::vector<std::pair<std::string, bool>> checks_;
  bool ok_ = true;
};

// -------------------------------------------------------------------- JSON

/// Writes one BENCH_*.json. It owns the file, the commas and the string
/// escaping, and opens every file with the same header: bench, smoke,
/// hardware_concurrency, the CPUID flags the crypto kernels dispatch on,
/// and the build type. Members go to the innermost open object or array;
/// the destructor closes what is still open and reports the path.
class Json {
 public:
  /// Exits with status 1 if `path` cannot be written.
  Json(const std::string& path, const char* bench, bool smoke)
      : path_(path), file_(std::fopen(path.c_str(), "w")) {
    if (file_ == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      std::exit(1);
    }
    std::fputc('{', file_);
    scopes_.push_back({'}', true});
    field("bench", bench).field("smoke", smoke);
    field("hardware_concurrency", std::thread::hardware_concurrency());
    object("cpu").field("aes_pclmul", crypto::cpu::has_aes_pclmul());
    field("sha_ni", crypto::cpu::has_sha_ni());
    field("avx512f", crypto::cpu::has_avx512f());
    field("vaes_avx512", crypto::cpu::has_vaes_avx512()).close();
    object("build").field("optimized", kOptimized).field("sanitized", kSanitized).close();
  }
  ~Json() {
    while (!scopes_.empty()) close();
    std::fputc('\n', file_);
    std::fclose(file_);
    std::printf("wrote %s\n", path_.c_str());
  }
  Json(const Json&) = delete;
  Json& operator=(const Json&) = delete;

  /// JSON string body: `"`, `\` and control characters escaped.
  static std::string escape(std::string_view s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += {'\\', c};
      } else if (c == '\n' || c == '\t') {
        out += c == '\n' ? "\\n" : "\\t";
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }

  Json& field(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& field(std::string_view key, std::string_view v) {
    return raw(key, "\"" + escape(v) + "\"");
  }
  Json& field(std::string_view key, const char* v) { return field(key, std::string_view(v)); }
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  Json& field(std::string_view key, T v) {
    return raw(key, std::to_string(v));
  }
  /// A non-finite number is written as null, so the file always parses.
  Json& field(std::string_view key, double v, int decimals) {
    char buf[512];  // DBL_MAX in fixed notation fits with room for decimals
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return raw(key, std::isfinite(v) ? buf : "null");
  }
  /// {"median", "q1", "q3"}.
  Json& field(std::string_view key, const Spread& s, int decimals) {
    object(key).field("median", s.median, decimals).field("q1", s.q1, decimals);
    return field("q3", s.q3, decimals).close();
  }
  Json& null(std::string_view key) { return raw(key, "null"); }

  /// Open an object or array as a member (`key`) or, inside an array, as
  /// the next element (no key).
  Json& object(std::string_view key = {}) { return open(key, '{', '}'); }
  Json& array(std::string_view key) { return open(key, '[', ']'); }
  Json& close() {
    const Scope scope = scopes_.back();
    scopes_.pop_back();
    if (!scope.empty) newline();
    std::fputc(scope.closer, file_);
    return *this;
  }

 private:
  struct Scope {
    char closer;
    bool empty;
  };

  void newline() {
    std::fputc('\n', file_);
    for (std::size_t i = 0; i < scopes_.size(); ++i) std::fputs("  ", file_);
  }
  Json& raw(std::string_view key, const std::string& text) {
    Scope& scope = scopes_.back();
    if (!scope.empty) std::fputc(',', file_);
    scope.empty = false;
    newline();
    if (scope.closer == '}') std::fprintf(file_, "\"%s\": ", escape(key).c_str());
    std::fputs(text.c_str(), file_);
    return *this;
  }
  Json& open(std::string_view key, char opener, char closer) {
    raw(key, std::string(1, opener));
    scopes_.push_back({closer, true});
    return *this;
  }

  std::string path_;
  std::FILE* file_;
  std::vector<Scope> scopes_;
};

// ---------------------------------------------------------------- baseline

/// The numbers of a committed BENCH_*.json, by key path: `a.b` for an
/// object member, `a[2]` for an array element, each key as written in the
/// file (escapes kept).
class Baseline {
 public:
  static common::Result<Baseline> load(const std::string& path) {
    std::ifstream in(path);
    if (!in) return common::not_found("baseline " + path + " not readable");
    std::stringstream text;
    text << in.rdbuf();
    return parse(text.str(), path);
  }

  static common::Result<Baseline> parse(std::string_view text, const std::string& name) {
    Baseline b;
    b.name_ = name;
    Reader reader{text, 0, &b.numbers_};
    if (!reader.value("", 0) || reader.peek() != '\0') {
      return common::parse_error("baseline " + name + " is not JSON (at byte " +
                                 std::to_string(reader.pos) + ")");
    }
    return b;
  }

  common::Result<double> number(const std::string& key) const {
    const auto it = numbers_.find(key);
    if (it == numbers_.end()) {
      return common::not_found("baseline " + name_ + " missing key " + key);
    }
    return it->second;
  }

 private:
  /// Recursive descent over one document (at most kMaxDepth deep),
  /// recording every number under its key path.
  struct Reader {
    static constexpr int kMaxDepth = 64;
    std::string_view s;
    std::size_t pos;
    std::map<std::string, double>* numbers;

    /// The next non-blank character, or '\0' at the end.
    char peek() {
      pos = std::min(s.find_first_not_of(" \t\r\n", pos), s.size());
      return pos < s.size() ? s[pos] : '\0';
    }
    bool eat(char c) {
      if (peek() != c) return false;
      ++pos;
      return true;
    }
    /// A string, kept as written: escapes are checked, not decoded.
    bool string(std::string& out) {
      if (!eat('"')) return false;
      const std::size_t begin = pos;
      for (; pos < s.size() && s[pos] != '"'; ++pos) {
        if (static_cast<unsigned char>(s[pos]) < 0x20) return false;
        if (s[pos] == '\\' && (++pos == s.size() || std::string_view("\"\\/bfnrtu").find(
                                                         s[pos]) == std::string_view::npos)) {
          return false;
        }
      }
      out = s.substr(begin, pos - begin);
      return eat('"');
    }
    bool value(const std::string& path, int depth) {
      const char c = peek();
      if (c == '{' || c == '[') {
        ++pos;
        const char closer = c == '{' ? '}' : ']';
        if (depth >= kMaxDepth) return false;
        if (eat(closer)) return true;
        for (int index = 0;; ++index) {
          std::string child = path + "[" + std::to_string(index) + "]";
          if (c == '{') {
            std::string key;
            if (!string(key) || !eat(':')) return false;
            child = path.empty() ? key : path + "." + key;
          }
          if (!value(child, depth + 1)) return false;
          if (eat(closer)) return true;
          if (!eat(',')) return false;
        }
      }
      if (c == '"') {
        std::string ignored;
        return string(ignored);
      }
      for (const std::string_view word : {"true", "false", "null"}) {
        if (s.substr(pos, word.size()) == word) {
          pos += word.size();
          return true;
        }
      }
      double v = 0;
      const auto [end, error] = std::from_chars(s.data() + pos, s.data() + s.size(), v);
      if (error != std::errc() || end == s.data() + pos) return false;
      (*numbers)[path] = v;
      pos = static_cast<std::size_t>(end - s.data());
      return true;
    }
  };

  std::string name_;
  std::map<std::string, double> numbers_;
};

}  // namespace genio::bench
