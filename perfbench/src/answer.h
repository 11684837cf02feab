#ifndef RPG_PERFBENCH_ANSWER_H_
#define RPG_PERFBENCH_ANSWER_H_

// How the benchmark decides that an /api/path response is right: both
// the served JSON body and a serial core::RePaGer::Generate result are
// reduced to one canonical "answer" string holding everything the
// response must get right (subgraph size, path nodes with title / year /
// engine marking, reading-order edges, navigation order) and nothing
// that legitimately varies between requests (timings, cache_hit,
// importance formatting).

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/repager.h"
#include "serve/epoch.h"

namespace perfbench {

/// A parsed JSON value; numbers keep their source text.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< string contents, or a number's literal text
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  /// The member named `key`, or null (also when this is not an object).
  const Json* Find(std::string_view key) const;
  /// A number member as double, or `fallback`.
  double Number(std::string_view key, double fallback = 0.0) const;
};

/// Strict parse of one JSON document; nullopt on any syntax error.
std::optional<Json> ParseJson(std::string_view text);

/// The canonical answer carried by a /api/path 200 body, or nullopt when
/// the body is not a well-formed reading-path document.
std::optional<std::string> AnswerFromBody(std::string_view body);

/// The canonical answer for a pipeline result computed on `epoch`.
std::string AnswerFromResult(const rpg::core::RePagerResult& result,
                             const rpg::serve::Epoch& epoch);

}  // namespace perfbench

#endif  // RPG_PERFBENCH_ANSWER_H_
