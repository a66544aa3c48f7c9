#include "util/string_utils.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <stdexcept>

namespace apt::util {

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string to_lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::string did_you_mean(const std::string& word,
                         const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_dist = 3;
  for (const std::string& candidate : candidates) {
    const std::size_t d = edit_distance(word, candidate);
    if (d < best_dist) {
      best = candidate;
      best_dist = d;
    }
  }
  return best;
}

std::string format_double(double value, int precision) {
  if (precision < 0 || precision > 17)
    throw std::invalid_argument("format_double: precision out of range");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

double parse_double(const std::string& s) {
  const std::string t = trim(s);
  if (t.empty()) throw std::invalid_argument("parse_double: empty string");
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(t, &pos);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("parse_double: out of range: '" + s + "'");
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_double: not a number: '" + s + "'");
  }
  if (pos != t.size())
    throw std::invalid_argument("parse_double: trailing characters: '" + s + "'");
  return v;
}

std::int64_t parse_int(const std::string& s) {
  const std::string t = trim(s);
  if (t.empty()) throw std::invalid_argument("parse_int: empty string");
  std::size_t pos = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(t, &pos);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("parse_int: out of range: '" + s + "'");
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_int: not an integer: '" + s + "'");
  }
  if (pos != t.size())
    throw std::invalid_argument("parse_int: trailing characters: '" + s + "'");
  return v;
}

std::uint64_t parse_uint(const std::string& s) {
  const std::string t = trim(s);
  if (t.empty()) throw std::invalid_argument("parse_uint: empty string");
  if (t.front() == '-')
    throw std::invalid_argument("parse_uint: negative value: '" + s + "'");
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(t, &pos);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("parse_uint: out of range: '" + s + "'");
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_uint: not an integer: '" + s + "'");
  }
  if (pos != t.size())
    throw std::invalid_argument("parse_uint: trailing characters: '" + s + "'");
  return v;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace apt::util
