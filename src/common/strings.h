#ifndef WFRM_COMMON_STRINGS_H_
#define WFRM_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace wfrm {

/// Lower-cases ASCII characters; used for keyword-insensitive parsing.
std::string AsciiToLower(std::string_view s);

/// Upper-cases ASCII characters.
std::string AsciiToUpper(std::string_view s);

/// Case-insensitive ASCII equality (RQL/PL keywords and identifiers).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Three-way comparison of AsciiToLower(a) and AsciiToLower(b) (<0, 0,
/// >0), without building either string.
int CompareIgnoreCase(std::string_view a, std::string_view b);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Splits on a delimiter character; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// True if `s` begins with `prefix` (case sensitive).
bool StartsWith(std::string_view s, std::string_view prefix);

/// Case-insensitive hash/equality functors for keyword tables and
/// identifier-keyed maps.
struct CaseInsensitiveHash {
  size_t operator()(std::string_view s) const;
};
struct CaseInsensitiveEq {
  bool operator()(std::string_view a, std::string_view b) const {
    return EqualsIgnoreCase(a, b);
  }
};

}  // namespace wfrm

#endif  // WFRM_COMMON_STRINGS_H_
