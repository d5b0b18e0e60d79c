// Small string utilities shared by the parsers and serializers.

#ifndef XMLREVAL_COMMON_STRING_UTIL_H_
#define XMLREVAL_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace xmlreval {

/// Transparent hash for std::string-keyed unordered containers: with
/// std::equal_to<> as the key equality, find() takes a std::string_view
/// and builds no temporary string.
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Returns `s` with leading/trailing ASCII whitespace removed.
std::string_view TrimWhitespace(std::string_view s);

/// Splits on `sep`, keeping empty fields.
std::vector<std::string_view> SplitString(std::string_view s, char sep);

/// True iff `c` is XML whitespace (space, tab, CR, LF).
inline bool IsXmlWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// True iff every byte of `s` is XML whitespace (vacuously true when
/// empty). SIMD over 16-byte blocks (SSE2 / NEON) with a portable scalar
/// fallback — the validators' ignorable-text test runs this over whole
/// text payloads straight out of the document's string arena.
bool IsAllXmlWhitespace(std::string_view s);

/// True iff `c` may start an XML name (ASCII subset: letter, '_' or ':').
bool IsNameStartChar(char c);

/// True iff `c` may continue an XML name (adds digits, '-', '.').
bool IsNameChar(char c);

/// True iff `s` is a non-empty XML name over the ASCII subset.
bool IsValidXmlName(std::string_view s);

/// Escapes '&', '<', '>', '"', '\'' for XML text/attribute output.
std::string EscapeXmlText(std::string_view s);

/// Parses a decimal integer (optional leading '-'); rejects trailing junk.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a decimal number with optional fraction as a scaled integer pair
/// suitable for exact facet comparison: returns value * 10^9 clamped into
/// int64 range. Accepts forms like "-12", "3.5", ".25".
Result<int64_t> ParseDecimalScaled(std::string_view s);

/// Formats "a, b, c" from a vector of strings (for diagnostics).
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Concatenates string-view-convertible pieces into one string with a single
/// reserve+append pass. The validators build failure messages with this at
/// the exact point a verdict becomes a failure, so success paths never pay
/// for diagnostics.
template <typename... Pieces>
std::string StrCat(const Pieces&... pieces) {
  size_t total = (std::string_view(pieces).size() + ... + 0);
  std::string out;
  out.reserve(total);
  (out.append(std::string_view(pieces)), ...);
  return out;
}

}  // namespace xmlreval

#endif  // XMLREVAL_COMMON_STRING_UTIL_H_
