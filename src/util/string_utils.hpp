// Small string helpers used across modules (no locale dependence).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace apt::util {

/// Splits on a single-character delimiter; keeps empty segments.
std::vector<std::string> split(const std::string& s, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string trim(const std::string& s);

/// ASCII lower-casing (no locale).
std::string to_lower(const std::string& s);

bool starts_with(const std::string& s, const std::string& prefix);
bool ends_with(const std::string& s, const std::string& suffix);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Levenshtein distance: the fewest single-character insertions,
/// deletions and substitutions that turn `a` into `b`.
std::size_t edit_distance(const std::string& a, const std::string& b);

/// The first of `candidates` closest to `word`, when within edit distance
/// 2 (typos, not arbitrary words, get a suggestion); "" otherwise.
std::string did_you_mean(const std::string& word,
                         const std::vector<std::string>& candidates);

/// Fixed-precision double formatting ("%.3f" style, no trailing garbage).
std::string format_double(double value, int precision = 3);

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes, and control characters (the one escaper behind every
/// hand-rolled JSON exporter in the tree).
std::string json_escape(const std::string& s);

/// Strict full-string parses; throw std::invalid_argument on failure, with
/// "out of range" in the message when the text is a number the type cannot
/// hold (a double that overflows or underflows, an integer past 64 bits).
double parse_double(const std::string& s);
std::int64_t parse_int(const std::string& s);
std::uint64_t parse_uint(const std::string& s);

}  // namespace apt::util
