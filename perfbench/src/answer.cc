#include "answer.h"

#include <cstdlib>
#include <unordered_set>

namespace perfbench {
namespace {

/// Recursive-descent JSON reader over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view in) : in_(in) {}

  bool Document(Json* out) {
    if (!Value(out, 0)) return false;
    SkipSpace();
    return pos_ == in_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\n' || in_[pos_] == '\r' ||
            in_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(std::string_view word) {
    if (in_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool String(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= in_.size()) return false;
      char e = in_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out->push_back(e); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > in_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = in_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return false;
          }
          // Titles are ASCII; keep wider code points as their escape.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else {
            out->append(in_.substr(pos_ - 6, 6));
          }
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool Number(std::string* out) {
    size_t start = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') ++pos_;
    while (pos_ < in_.size() &&
           ((in_[pos_] >= '0' && in_[pos_] <= '9') || in_[pos_] == '.' ||
            in_[pos_] == 'e' || in_[pos_] == 'E' || in_[pos_] == '+' ||
            in_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->assign(in_.substr(start, pos_ - start));
    return true;
  }

  bool Value(Json* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= in_.size()) return false;
    char c = in_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = Json::Kind::kObject;
      if (Consume('}')) return true;
      do {
        std::pair<std::string, Json> field;
        if (!String(&field.first) || !Consume(':') ||
            !Value(&field.second, depth + 1)) {
          return false;
        }
        out->fields.push_back(std::move(field));
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->kind = Json::Kind::kArray;
      if (Consume(']')) return true;
      do {
        out->items.emplace_back();
        if (!Value(&out->items.back(), depth + 1)) return false;
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->text);
    }
    if (Literal("true")) {
      out->kind = Json::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    out->kind = Json::Kind::kNumber;
    return Number(&out->text);
  }

  std::string_view in_;
  size_t pos_ = 0;
};

void AppendNode(uint64_t id, const std::string& year, const std::string& title,
                bool from_engine, std::string* out) {
  *out += std::to_string(id) + ':' + year + ':' + (from_engine ? '1' : '0') +
          ':' + std::to_string(title.size()) + ':' + title + ';';
}

}  // namespace

const Json* Json::Find(std::string_view key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Json::Number(std::string_view key, double fallback) const {
  const Json* v = Find(key);
  if (v == nullptr || v->kind != Kind::kNumber) return fallback;
  return std::strtod(v->text.c_str(), nullptr);
}

std::optional<Json> ParseJson(std::string_view text) {
  Json doc;
  if (!Parser(text).Document(&doc)) return std::nullopt;
  return doc;
}

std::optional<std::string> AnswerFromBody(std::string_view body) {
  std::optional<Json> doc = ParseJson(body);
  if (!doc || doc->kind != Json::Kind::kObject) return std::nullopt;
  auto integer = [](const Json* v) -> std::optional<uint64_t> {
    if (v == nullptr || v->kind != Json::Kind::kNumber || v->text.empty() ||
        v->text.find_first_not_of("0123456789") != std::string::npos) {
      return std::nullopt;
    }
    return std::stoull(v->text);
  };
  auto sg_nodes = integer(doc->Find("subgraph_nodes"));
  auto sg_edges = integer(doc->Find("subgraph_edges"));
  const Json* nodes = doc->Find("nodes");
  const Json* edges = doc->Find("edges");
  const Json* order = doc->Find("reading_order");
  if (!sg_nodes || !sg_edges || nodes == nullptr ||
      nodes->kind != Json::Kind::kArray || edges == nullptr ||
      edges->kind != Json::Kind::kArray || order == nullptr ||
      order->kind != Json::Kind::kArray) {
    return std::nullopt;
  }
  std::string out = "sg=" + std::to_string(*sg_nodes) + '/' +
                    std::to_string(*sg_edges) + "|n=";
  for (const Json& node : nodes->items) {
    auto id = integer(node.Find("id"));
    const Json* title = node.Find("title");
    const Json* year = node.Find("year");
    const Json* from_engine = node.Find("from_engine");
    if (!id || title == nullptr || title->kind != Json::Kind::kString ||
        year == nullptr || year->kind != Json::Kind::kNumber ||
        from_engine == nullptr || from_engine->kind != Json::Kind::kBool) {
      return std::nullopt;
    }
    AppendNode(*id, year->text, title->text, from_engine->boolean, &out);
  }
  out += "|e=";
  for (const Json& edge : edges->items) {
    auto first = integer(edge.Find("read_first"));
    auto next = integer(edge.Find("read_next"));
    if (!first || !next) return std::nullopt;
    out += std::to_string(*first) + '>' + std::to_string(*next) + ';';
  }
  out += "|o=";
  for (const Json& p : order->items) {
    auto id = integer(&p);
    if (!id) return std::nullopt;
    out += std::to_string(*id) + ';';
  }
  return out;
}

std::string AnswerFromResult(const rpg::core::RePagerResult& result,
                             const rpg::serve::Epoch& epoch) {
  const std::vector<std::string>& titles = *epoch.titles();
  const std::vector<uint16_t>& years = *epoch.years();
  std::unordered_set<rpg::graph::PaperId> seeds(result.initial_seeds.begin(),
                                                result.initial_seeds.end());
  std::string out = "sg=" + std::to_string(result.subgraph_nodes) + '/' +
                    std::to_string(result.subgraph_edges) + "|n=";
  for (rpg::graph::PaperId p : result.path.nodes()) {
    AppendNode(p, std::to_string(years[p]), titles[p], seeds.contains(p), &out);
  }
  out += "|e=";
  for (const auto& [first, next] : result.path.edges()) {
    out += std::to_string(first) + '>' + std::to_string(next) + ';';
  }
  out += "|o=";
  for (rpg::graph::PaperId p : result.path.FlattenedOrder(years)) {
    out += std::to_string(p) + ';';
  }
  return out;
}

}  // namespace perfbench
