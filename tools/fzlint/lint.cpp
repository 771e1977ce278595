#include "fzlint/lint.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>

#include "fzlint/lexer.hpp"

namespace fzlint {

namespace {

// ---- suppression markers ----------------------------------------------------

/// Per-file `fzlint:allow(rule,...)` markers: rule -> lines where findings
/// are silenced (the marker's line and the next one, so a marker can sit
/// either at the end of the offending line or on its own line above it).
using AllowMap = std::map<std::string, std::set<int>>;

AllowMap collect_allows(const LexedFile& lexed) {
  AllowMap allows;
  constexpr std::string_view kMarker = "fzlint:allow(";
  for (const Comment& comment : lexed.comments) {
    size_t at = comment.text.find(kMarker);
    while (at != std::string::npos) {
      const size_t open = at + kMarker.size();
      const size_t close = comment.text.find(')', open);
      if (close == std::string::npos) break;
      std::string rules = comment.text.substr(open, close - open);
      size_t start = 0;
      while (start <= rules.size()) {
        size_t comma = rules.find(',', start);
        if (comma == std::string::npos) comma = rules.size();
        std::string rule = rules.substr(start, comma - start);
        rule.erase(0, rule.find_first_not_of(" \t"));
        const size_t last = rule.find_last_not_of(" \t");
        if (last != std::string::npos) rule.erase(last + 1);
        if (!rule.empty()) {
          allows[rule].insert(comment.line);
          allows[rule].insert(comment.line + 1);
        }
        start = comma + 1;
      }
      at = comment.text.find(kMarker, close);
    }
  }
  return allows;
}

bool has_marker(const LexedFile& lexed, std::string_view marker) {
  for (const Comment& comment : lexed.comments)
    if (comment.text.find(marker) != std::string::npos) return true;
  return false;
}

// ---- layer graph ------------------------------------------------------------

struct LayerGraph {
  /// layer -> direct dependencies ("*" entries become `star`).
  std::map<std::string, std::vector<std::string>> deps;
  std::set<std::string> star;  ///< layers allowed to include everything
  /// layer -> transitive dependency closure (direct deps expanded).
  std::map<std::string, std::set<std::string>> closure;
  std::vector<std::string> errors;
};

void close_over(const std::string& layer, LayerGraph& g,
                std::set<std::string>& visiting) {
  if (g.closure.count(layer) != 0) return;
  if (!visiting.insert(layer).second) {
    g.errors.push_back("layer dependency cycle through '" + layer +
                       "' — the declared graph must be a DAG");
    g.closure[layer];  // break the recursion; the error already fails the run
    return;
  }
  std::set<std::string> reach;
  for (const std::string& dep : g.deps[layer]) {
    reach.insert(dep);
    close_over(dep, g, visiting);
    const auto& sub = g.closure[dep];
    reach.insert(sub.begin(), sub.end());
  }
  visiting.erase(layer);
  if (reach.count(layer) != 0)
    g.errors.push_back("layer '" + layer + "' depends on itself");
  g.closure[layer] = std::move(reach);
}

LayerGraph parse_layers(const std::string& text, const std::string& path) {
  LayerGraph g;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  std::vector<std::pair<std::string, int>> pending_deps;  // dep, line
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string name;
    if (!(fields >> name)) continue;
    if (name.back() != ':') {
      g.errors.push_back(path + ":" + std::to_string(lineno) +
                         ": expected 'layer: dep dep ...', got '" + name + "'");
      continue;
    }
    name.pop_back();
    if (g.deps.count(name) != 0) {
      g.errors.push_back(path + ":" + std::to_string(lineno) + ": layer '" +
                         name + "' declared twice");
      continue;
    }
    auto& deps = g.deps[name];
    std::string dep;
    while (fields >> dep) {
      if (dep == "*") {
        g.star.insert(name);
      } else {
        deps.push_back(dep);
        pending_deps.emplace_back(dep, lineno);
      }
    }
  }
  for (const auto& [dep, at] : pending_deps)
    if (g.deps.count(dep) == 0)
      g.errors.push_back(path + ":" + std::to_string(at) +
                         ": dependency on undeclared layer '" + dep + "'");
  if (g.errors.empty()) {
    std::set<std::string> visiting;
    for (const auto& [layer, unused] : g.deps) close_over(layer, g, visiting);
  }
  return g;
}

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) slash = path.size();
    if (slash > start) parts.push_back(path.substr(start, slash - start));
    start = slash + 1;
  }
  return parts;
}

/// The layer a repo-relative file belongs to ("" = outside the layered
/// world; layering is skipped for such files).
std::string layer_of_file(const std::string& path) {
  const std::vector<std::string> parts = split_path(path);
  if (parts.empty()) return "";
  if (parts[0] == "src") {
    if (parts.size() >= 3) return parts[1];
    if (parts.size() == 2 && parts[1] == "fz.hpp") return "fz";
    return "";
  }
  if (parts[0] == "tools" || parts[0] == "tests" || parts[0] == "examples" ||
      parts[0] == "bench")
    return parts[0];
  return "";
}

/// The layer an include path targets ("" = not a layered project header:
/// same-directory includes, external headers, unknown components).
std::string layer_of_include(const std::string& include_path,
                             const LayerGraph& g) {
  if (include_path == "fz.hpp") return "fz";
  const size_t slash = include_path.find('/');
  if (slash == std::string::npos) return "";
  const std::string head = include_path.substr(0, slash);
  return g.deps.count(head) != 0 ? head : "";
}

void check_layering(const Config& config, const SourceFile& file,
                    const LexedFile& lexed, const LayerGraph& g,
                    std::vector<Finding>& out) {
  const std::string layer = layer_of_file(file.path);
  if (layer.empty()) return;
  if (g.deps.count(layer) == 0) {
    out.push_back({file.path, 1, kRuleLayering,
                   "layer '" + layer + "' is not declared in " +
                       config.layers_path +
                       " — add it with its dependencies"});
    return;
  }
  if (g.star.count(layer) != 0) return;
  const std::set<std::string>& allowed = g.closure.at(layer);
  for (const Include& inc : lexed.includes) {
    if (inc.angled) continue;
    const std::string target = layer_of_include(inc.path, g);
    if (target.empty() || target == layer) continue;
    if (allowed.count(target) != 0) continue;
    std::string deps_list;
    for (const std::string& d : g.deps.at(layer))
      deps_list += (deps_list.empty() ? "" : ", ") + d;
    if (deps_list.empty()) deps_list = "(none)";
    out.push_back({file.path, inc.line, kRuleLayering,
                   "layer '" + layer + "' may not include '" + inc.path +
                       "' (layer '" + target + "'); declared deps of '" +
                       layer + "': " + deps_list});
  }
}

// ---- lock discipline --------------------------------------------------------

bool is_growth_call(const std::string& name) {
  static const std::set<std::string> kGrowth = {
      "push_back", "emplace_back", "push_front", "emplace_front",
      "emplace",   "insert",       "resize",     "reserve",
      "append"};
  return kGrowth.count(name) != 0;
}

bool is_wait_call(const std::string& name) {
  static const std::set<std::string> kWait = {"wait", "wait_for", "wait_until",
                                              "join"};
  return kWait.count(name) != 0;
}

void check_lock_discipline(const SourceFile& file, const LexedFile& lexed,
                           std::vector<Finding>& out) {
  if (!has_marker(lexed, kHotPathMarker)) return;

  struct ActiveLock {
    int depth;
    int line;
  };
  std::vector<ActiveLock> locks;
  int depth = 0;
  const auto& toks = lexed.tokens;

  auto text_at = [&](size_t i) -> const std::string& {
    static const std::string empty;
    return i < toks.size() ? toks[i].text : empty;
  };
  auto kind_at = [&](size_t i) {
    return i < toks.size() ? toks[i].kind : TokKind::Punct;
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::Punct) {
      if (t.text == "{") ++depth;
      if (t.text == "}") {
        depth = depth > 0 ? depth - 1 : 0;
        while (!locks.empty() && locks.back().depth > depth) locks.pop_back();
      }
      continue;
    }
    if (t.kind != TokKind::Identifier) continue;

    if (t.text == "lock_guard" || t.text == "unique_lock" ||
        t.text == "scoped_lock") {
      locks.push_back({depth, t.line});
      continue;
    }
    if (locks.empty()) continue;

    const std::string held =
        " while holding the lock taken at line " +
        std::to_string(locks.back().line) +
        " — move it outside the critical section";
    const std::string& prev = i > 0 ? toks[i - 1].text : "";
    const bool member_call = prev == "." || prev == "->";

    if (t.text == "new" && prev != "operator") {
      out.push_back({file.path, t.line, kRuleLockDiscipline,
                     "'new' allocates" + held});
    } else if (t.text.rfind("make_", 0) == 0 &&
               (text_at(i + 1) == "(" || text_at(i + 1) == "<")) {
      out.push_back({file.path, t.line, kRuleLockDiscipline,
                     "'" + t.text + "' allocates" + held});
    } else if (member_call && is_growth_call(t.text) &&
               text_at(i + 1) == "(") {
      out.push_back({file.path, t.line, kRuleLockDiscipline,
                     "container growth '." + t.text + "()' may allocate" +
                         held});
    } else if (member_call && is_wait_call(t.text) && text_at(i + 1) == "(") {
      out.push_back({file.path, t.line, kRuleLockDiscipline,
                     "blocking '." + t.text + "()'" + held});
    } else if ((t.text == "sleep_for" || t.text == "sleep_until") &&
               text_at(i + 1) == "(") {
      out.push_back({file.path, t.line, kRuleLockDiscipline,
                     "blocking '" + t.text + "'" + held});
    } else if (t.text == "Span" &&
               (kind_at(i + 1) == TokKind::Identifier ||
                text_at(i + 1) == "(" || text_at(i + 1) == "{")) {
      out.push_back({file.path, t.line, kRuleLockDiscipline,
                     "telemetry Span constructed" + held +
                         " (spans time their whole scope; a span inside a "
                         "lock measures contention as work)"});
    }
  }
}

// ---- layout audit -----------------------------------------------------------

struct FieldLayout {
  std::string name;
  std::uint64_t offset;
  std::uint64_t size;
  int line;
};

struct StructLayout {
  std::string name;
  int line;
  std::uint64_t size = 0;
  std::vector<FieldLayout> fields;
};

/// Byte width of the scalar types the on-disk structs are built from.
/// Anything else inside a packed struct is a layout-audit finding: fzlint
/// must be able to compute the layout it certifies.
std::uint64_t scalar_size(const std::string& type) {
  static const std::map<std::string, std::uint64_t> kSizes = {
      {"u8", 1},  {"i8", 1},  {"char", 1},    {"bool", 1},
      {"u16", 2}, {"i16", 2}, {"u32", 4},     {"i32", 4},
      {"f32", 4}, {"u64", 8}, {"i64", 8},     {"f64", 8},
      {"float", 4},           {"double", 8},
      {"uint8_t", 1},  {"int8_t", 1},  {"uint16_t", 2}, {"int16_t", 2},
      {"uint32_t", 4}, {"int32_t", 4}, {"uint64_t", 8}, {"int64_t", 8}};
  const auto it = kSizes.find(type);
  return it == kSizes.end() ? 0 : it->second;
}

bool parse_uint(const std::string& text, std::uint64_t& value) {
  std::string digits;
  for (char c : text)
    if (c != '\'') digits.push_back(c);
  // Strip integer suffixes (u, l, ull, ...).
  while (!digits.empty()) {
    const char c = digits.back();
    if (c == 'u' || c == 'U' || c == 'l' || c == 'L')
      digits.pop_back();
    else
      break;
  }
  if (digits.empty()) return false;
  try {
    size_t used = 0;
    value = std::stoull(digits, &used, 0);
    return used == digits.size();
  } catch (...) {
    return false;
  }
}

bool pp_is_pack_push(const std::string& text) {
  return text.find("pragma") != std::string::npos &&
         text.find("pack") != std::string::npos &&
         text.find("push") != std::string::npos;
}
bool pp_is_pack_pop(const std::string& text) {
  return text.find("pragma") != std::string::npos &&
         text.find("pack") != std::string::npos &&
         text.find("pop") != std::string::npos;
}

/// Parse every `struct Name { scalar fields... };` inside #pragma
/// pack(push, 1) regions.  Reports (as findings) members it cannot size —
/// the audit refuses to certify a layout it cannot compute.
std::vector<StructLayout> parse_packed_structs(const SourceFile& file,
                                               const LexedFile& lexed,
                                               std::vector<Finding>& out) {
  std::vector<StructLayout> structs;
  const auto& toks = lexed.tokens;
  int pack_depth = 0;

  auto text_at = [&](size_t i) -> const std::string& {
    static const std::string empty;
    return i < toks.size() ? toks[i].text : empty;
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::Pp) {
      if (pp_is_pack_push(t.text)) ++pack_depth;
      if (pp_is_pack_pop(t.text)) pack_depth = std::max(0, pack_depth - 1);
      continue;
    }
    if (pack_depth == 0 || t.kind != TokKind::Identifier || t.text != "struct")
      continue;
    if (i + 2 >= toks.size() || toks[i + 1].kind != TokKind::Identifier ||
        text_at(i + 2) != "{")
      continue;  // forward declaration or something fancier

    StructLayout layout;
    layout.name = toks[i + 1].text;
    layout.line = toks[i + 1].line;
    size_t j = i + 3;
    int braces = 1;
    std::uint64_t offset = 0;
    bool parse_ok = true;

    while (j < toks.size() && braces > 0) {
      const Token& m = toks[j];
      if (m.kind == TokKind::Punct && m.text == "{") {
        ++braces;
        ++j;
        continue;
      }
      if (m.kind == TokKind::Punct && m.text == "}") {
        --braces;
        ++j;
        continue;
      }
      if (braces != 1 || m.kind != TokKind::Identifier) {
        ++j;
        continue;
      }
      // A member declaration: TYPE name[, name...][arrays];
      const std::uint64_t elem = scalar_size(m.text);
      if (elem == 0) {
        out.push_back(
            {file.path, m.line, kRuleLayoutAudit,
             "cannot compute the layout of packed struct '" + layout.name +
                 "': member type '" + m.text +
                 "' is not a fixed-width scalar — on-disk structs must be "
                 "flat scalar records"});
        parse_ok = false;
        // Skip to the end of this struct.
        while (j < toks.size() && braces > 0) {
          if (toks[j].kind == TokKind::Punct && toks[j].text == "{") ++braces;
          if (toks[j].kind == TokKind::Punct && toks[j].text == "}") --braces;
          ++j;
        }
        break;
      }
      ++j;
      // Declarator list.
      while (j < toks.size()) {
        if (toks[j].kind != TokKind::Identifier) break;
        FieldLayout field;
        field.name = toks[j].text;
        field.line = toks[j].line;
        field.offset = offset;
        std::uint64_t count = 1;
        ++j;
        if (text_at(j) == "[") {
          std::uint64_t n = 0;
          if (j + 2 < toks.size() && toks[j + 1].kind == TokKind::Number &&
              parse_uint(toks[j + 1].text, n) && text_at(j + 2) == "]") {
            count = n;
            j += 3;
          } else {
            out.push_back({file.path, field.line, kRuleLayoutAudit,
                           "cannot compute the layout of packed struct '" +
                               layout.name + "': array extent of '" +
                               field.name + "' is not a literal"});
            parse_ok = false;
            break;
          }
        }
        if (text_at(j) == "=") {
          // Default member initializer (e.g. `u32 magic = kMagic;`): skip
          // to the ',' or ';' that ends this declarator — initializers
          // don't affect layout.
          ++j;
          int depth = 0;
          while (j < toks.size()) {
            const std::string& t = toks[j].text;
            if (toks[j].kind == TokKind::Punct) {
              if (t == "(" || t == "{" || t == "[") ++depth;
              else if (t == ")" || t == "}" || t == "]") --depth;
              else if (depth == 0 && (t == "," || t == ";")) break;
            }
            ++j;
          }
        }
        field.size = elem * count;
        offset += field.size;
        layout.fields.push_back(field);
        if (text_at(j) == ",") {
          ++j;
          continue;
        }
        break;
      }
      if (!parse_ok) break;
      if (text_at(j) == ";") ++j;
    }
    if (parse_ok && !layout.fields.empty()) {
      layout.size = offset;
      structs.push_back(std::move(layout));
    }
    i = j > i ? j - 1 : i;
  }
  return structs;
}

struct AssertedValue {
  std::uint64_t value;
  int line;
};

struct LayoutAsserts {
  std::map<std::string, AssertedValue> sizeof_of;  // struct -> asserted size
  std::map<std::string, std::map<std::string, AssertedValue>> offset_of;
  std::map<std::string, int> trivially_copyable;  // struct -> assert line
};

/// Collect static_assert(sizeof(T) == N), static_assert(offsetof(T, f) == N)
/// and static_assert(std::is_trivially_copyable_v<T>) facts from the token
/// stream.  Values must be integer literals — that is the point: the
/// numbers in the header are the contract fzlint checks the declaration
/// against.
LayoutAsserts collect_layout_asserts(const LexedFile& lexed) {
  LayoutAsserts facts;
  const auto& toks = lexed.tokens;

  auto text_at = [&](size_t i) -> const std::string& {
    static const std::string empty;
    return i < toks.size() ? toks[i].text : empty;
  };

  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier ||
        toks[i].text != "static_assert" || text_at(i + 1) != "(")
      continue;
    size_t j = i + 2;
    if (text_at(j) == "std" && text_at(j + 1) == "::") j += 2;

    if (text_at(j) == "sizeof" && text_at(j + 1) == "(" &&
        toks.size() > j + 5 && toks[j + 2].kind == TokKind::Identifier &&
        text_at(j + 3) == ")" && text_at(j + 4) == "==" &&
        toks[j + 5].kind == TokKind::Number) {
      std::uint64_t value = 0;
      if (parse_uint(toks[j + 5].text, value))
        facts.sizeof_of[toks[j + 2].text] = {value, toks[i].line};
    } else if (text_at(j) == "offsetof" && text_at(j + 1) == "(" &&
               toks.size() > j + 7 &&
               toks[j + 2].kind == TokKind::Identifier &&
               text_at(j + 3) == "," &&
               toks[j + 4].kind == TokKind::Identifier &&
               text_at(j + 5) == ")" && text_at(j + 6) == "==" &&
               toks[j + 7].kind == TokKind::Number) {
      std::uint64_t value = 0;
      if (parse_uint(toks[j + 7].text, value))
        facts.offset_of[toks[j + 2].text][toks[j + 4].text] = {value,
                                                               toks[i].line};
    } else if (text_at(j) == "is_trivially_copyable_v" &&
               text_at(j + 1) == "<" && toks.size() > j + 2 &&
               toks[j + 2].kind == TokKind::Identifier) {
      facts.trivially_copyable[toks[j + 2].text] = toks[i].line;
    } else if (text_at(j) == "is_trivially_copyable" &&
               text_at(j + 1) == "<" && toks.size() > j + 2 &&
               toks[j + 2].kind == TokKind::Identifier) {
      facts.trivially_copyable[toks[j + 2].text] = toks[i].line;
    }
  }
  return facts;
}

void check_layout(const SourceFile& file, const LexedFile& lexed,
                  std::vector<Finding>& out) {
  const std::vector<StructLayout> structs =
      parse_packed_structs(file, lexed, out);
  const LayoutAsserts facts = collect_layout_asserts(lexed);

  for (const StructLayout& s : structs) {
    // sizeof.
    const auto size_it = facts.sizeof_of.find(s.name);
    if (size_it == facts.sizeof_of.end()) {
      out.push_back({file.path, s.line, kRuleLayoutAudit,
                     "on-disk struct '" + s.name +
                         "' has no static_assert(sizeof(" + s.name + ") == " +
                         std::to_string(s.size) + ")"});
    } else if (size_it->second.value != s.size) {
      out.push_back({file.path, size_it->second.line, kRuleLayoutAudit,
                     "sizeof assert for '" + s.name + "' says " +
                         std::to_string(size_it->second.value) +
                         " but the declaration lays out to " +
                         std::to_string(s.size) + " bytes"});
    }
    // offsetof, every field.
    const auto offsets_it = facts.offset_of.find(s.name);
    for (const FieldLayout& f : s.fields) {
      const AssertedValue* asserted = nullptr;
      if (offsets_it != facts.offset_of.end()) {
        const auto it = offsets_it->second.find(f.name);
        if (it != offsets_it->second.end()) asserted = &it->second;
      }
      if (asserted == nullptr) {
        out.push_back({file.path, f.line, kRuleLayoutAudit,
                       "field '" + s.name + "::" + f.name +
                           "' has no static_assert(offsetof(" + s.name + ", " +
                           f.name + ") == " + std::to_string(f.offset) + ")"});
      } else if (asserted->value != f.offset) {
        out.push_back({file.path, asserted->line, kRuleLayoutAudit,
                       "offsetof assert for '" + s.name + "::" + f.name +
                           "' says " + std::to_string(asserted->value) +
                           " but the declaration places it at byte " +
                           std::to_string(f.offset)});
      }
    }
    // Asserts naming fields the declaration does not have (stale asserts).
    if (offsets_it != facts.offset_of.end()) {
      for (const auto& [field, asserted] : offsets_it->second) {
        const bool known =
            std::any_of(s.fields.begin(), s.fields.end(),
                        [&](const FieldLayout& f) { return f.name == field; });
        if (!known)
          out.push_back({file.path, asserted.line, kRuleLayoutAudit,
                         "offsetof assert names '" + s.name + "::" + field +
                             "', which the declaration does not have"});
      }
    }
    // Trivial copyability: memcpy in/out of the stream must be legal.
    if (facts.trivially_copyable.count(s.name) == 0)
      out.push_back({file.path, s.line, kRuleLayoutAudit,
                     "on-disk struct '" + s.name +
                         "' has no static_assert(std::is_trivially_copyable_v<" +
                         s.name + ">)"});
  }
}

// ---- hygiene ----------------------------------------------------------------

bool in_src(const std::string& path) { return path.rfind("src/", 0) == 0; }

bool is_thread_pool_file(const std::string& path) {
  return path == "src/common/thread_pool.hpp" ||
         path == "src/common/thread_pool.cpp";
}

void check_hygiene(const SourceFile& file, const LexedFile& lexed,
                   std::vector<Finding>& out) {
  if (!in_src(file.path)) return;
  static const std::map<std::string, std::string> kBannedCalls = {
      {"malloc", "use AlignedBuffer / BufferPool (common/buffer.hpp)"},
      {"calloc", "use AlignedBuffer / BufferPool (common/buffer.hpp)"},
      {"realloc", "use AlignedBuffer / BufferPool (common/buffer.hpp)"},
      {"printf", "library code must not write to stdout; return data or "
                 "take an ostream (examples/ may print)"},
      {"fprintf", "library code must not write to stdio; take an ostream "
                  "(examples/ may print)"},
      {"sprintf", "unbounded formatting; use std::string / ostringstream"},
      {"rand", "not reproducible across platforms; use common/rng.hpp"},
      {"srand", "not reproducible across platforms; use common/rng.hpp"}};

  const auto& toks = lexed.tokens;
  auto text_at = [&](size_t i) -> const std::string& {
    static const std::string empty;
    return i < toks.size() ? toks[i].text : empty;
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    const std::string& prev = i > 0 ? toks[i - 1].text : "";

    const auto banned = kBannedCalls.find(t.text);
    if (banned != kBannedCalls.end() && text_at(i + 1) == "(" &&
        prev != "." && prev != "->" && prev != "operator") {
      out.push_back({file.path, t.line, kRuleHygiene,
                     "banned call '" + t.text + "()': " + banned->second});
      continue;
    }

    // std::thread outside the pool implementation.  std::thread::<member>
    // (hardware_concurrency, id) is metadata, not thread creation — allowed.
    if (t.text == "std" && text_at(i + 1) == "::" &&
        text_at(i + 2) == "thread" && text_at(i + 3) != "::" &&
        !is_thread_pool_file(file.path)) {
      out.push_back(
          {file.path, t.line, kRuleHygiene,
           "raw std::thread outside common/thread_pool.{hpp,cpp}: use "
           "fz::ThreadPool or the common/parallel.hpp helpers so threads "
           "stay pooled and exceptions stay contained"});
    }
  }
}

}  // namespace

// ---- engine -----------------------------------------------------------------

Report run_lint(const Config& config, const std::vector<SourceFile>& files) {
  Report report;
  for (const char* rule : {kRuleLayering, kRuleLockDiscipline,
                           kRuleLayoutAudit, kRuleHygiene})
    report.per_rule[rule] = 0;

  const LayerGraph graph = parse_layers(config.layers_text, config.layers_path);
  for (const std::string& err : graph.errors)
    report.errors.push_back("[layering] " + err);

  const std::set<std::string> layout_files(config.layout_files.begin(),
                                           config.layout_files.end());

  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    const LexedFile lexed = lex(file.content);
    const AllowMap allows = collect_allows(lexed);

    std::vector<Finding> raw;
    if (graph.errors.empty()) check_layering(config, file, lexed, graph, raw);
    check_lock_discipline(file, lexed, raw);
    if (layout_files.count(file.path) != 0) check_layout(file, lexed, raw);
    check_hygiene(file, lexed, raw);

    for (Finding& f : raw) {
      const auto allowed = allows.find(f.rule);
      if (allowed != allows.end() && allowed->second.count(f.line) != 0) {
        ++report.suppressed;
        continue;
      }
      findings.push_back(std::move(f));
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  for (const Finding& f : findings) ++report.per_rule[f.rule];
  report.findings = std::move(findings);
  return report;
}

// ---- reporters --------------------------------------------------------------

void write_text_report(const Report& report, std::ostream& os) {
  for (const std::string& err : report.errors) os << "fzlint: error: " << err << "\n";
  for (const Finding& f : report.findings)
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  for (const auto& [rule, count] : report.per_rule)
    os << "fzlint: " << rule << ": " << count << " finding"
       << (count == 1 ? "" : "s") << "\n";
  os << "fzlint: " << report.findings.size() << " total, " << report.suppressed
     << " suppressed, " << report.errors.size() << " errors — "
     << (report.clean() ? "clean" : "FAILED") << "\n";
}

namespace {

void json_escape(const std::string& s, std::ostream& os) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void write_json_report(const Report& report, std::ostream& os) {
  os << "{\n  \"findings\": [";
  for (size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"file\": ";
    json_escape(f.file, os);
    os << ", \"line\": " << f.line << ", \"rule\": ";
    json_escape(f.rule, os);
    os << ", \"message\": ";
    json_escape(f.message, os);
    os << "}";
  }
  os << (report.findings.empty() ? "" : "\n  ") << "],\n  \"summary\": {";
  bool first = true;
  for (const auto& [rule, count] : report.per_rule) {
    os << (first ? "" : ", ");
    json_escape(rule, os);
    os << ": " << count;
    first = false;
  }
  os << "},\n  \"suppressed\": " << report.suppressed << ",\n  \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    os << (i == 0 ? "" : ", ");
    json_escape(report.errors[i], os);
  }
  os << "],\n  \"clean\": " << (report.clean() ? "true" : "false") << "\n}\n";
}

}  // namespace fzlint
