// DAG serialisation: a simple line-oriented text format with round-trip
// support, and Graphviz DOT export for visual inspection.
//
// Text format:
//   # comment / blank lines ignored
//   node <id> <kernel> <data_size> [release_ms]
//   edge <src> <dst>
// Fields are separated by runs of spaces and tabs. Node ids must be dense
// and in ascending order (the insertion order the dynamic policies treat as
// arrival order).
#pragma once

#include <string>

#include "dag/graph.hpp"

namespace apt::dag {

std::string to_text(const Dag& dag);

/// Parses the text format. Every error names its line ("Dag::from_text
/// line N: ...") and keeps its kind: std::runtime_error for a malformed
/// line, std::invalid_argument for a bad value (a number that does not
/// parse, an id out of range or unknown), std::logic_error for an edge that
/// would close a cycle.
Dag from_text(const std::string& text);

/// Reads a graph file through from_text. Throws std::runtime_error naming
/// the path when the file cannot be opened or holds no node line (empty or
/// comments only): a graph file describes at least one kernel, while
/// from_text("") is the empty graph.
Dag load_text_file(const std::string& path);
void save_text_file(const Dag& dag, const std::string& path);

/// Graphviz DOT (digraph) with kernel/data-size labels.
std::string to_dot(const Dag& dag, const std::string& graph_name = "dfg");

}  // namespace apt::dag
