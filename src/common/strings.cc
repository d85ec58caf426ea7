#include "common/strings.h"

#include <algorithm>
#include <cctype>

namespace wfrm {

std::string AsciiToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::string AsciiToUpper(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(static_cast<char>(
        std::toupper(static_cast<unsigned char>(c))));
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

int CompareIgnoreCase(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int ca = std::tolower(static_cast<unsigned char>(a[i]));
    const int cb = std::tolower(static_cast<unsigned char>(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(s.substr(start));
      break;
    }
    pieces.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(pieces[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

size_t CaseInsensitiveHash::operator()(std::string_view s) const {
  // FNV-1a over lower-cased bytes.
  size_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<size_t>(
        std::tolower(static_cast<unsigned char>(c)));
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace wfrm
