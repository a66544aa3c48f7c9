#include "dag/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/string_utils.hpp"

namespace apt::dag {

std::string to_text(const Dag& dag) {
  std::string out;
  out += "# apt dataflow graph: " + std::to_string(dag.node_count()) +
         " nodes, " + std::to_string(dag.edge_count()) + " edges\n";
  for (NodeId i = 0; i < dag.node_count(); ++i) {
    const Node& n = dag.node(i);
    out += "node " + std::to_string(i) + " " + n.kernel + " " +
           std::to_string(n.data_size);
    if (n.release_ms > 0.0)
      out += " " + util::format_double(n.release_ms, 6);
    out += "\n";
  }
  for (NodeId i = 0; i < dag.node_count(); ++i) {
    for (const NodeId s : dag.successors(i))
      out += "edge " + std::to_string(i) + " " + std::to_string(s) + "\n";
  }
  return out;
}

namespace {

/// An edge endpoint as written, rejected before narrowing when NodeId
/// cannot hold it.
NodeId parse_node_id(const std::string& text) {
  const std::uint64_t id = util::parse_uint(text);
  if (id >= kInvalidNode)
    throw std::invalid_argument("node id " + text + " out of range");
  return static_cast<NodeId>(id);
}

/// The fields of a trimmed line: the runs between spaces and tabs.
std::vector<std::string> fields(const std::string& line) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while ((begin = line.find_first_not_of(" \t", begin)) != std::string::npos) {
    const std::size_t end = line.find_first_of(" \t", begin);
    out.push_back(line.substr(begin, end - begin));
    begin = end;
  }
  return out;
}

/// Applies one directive line, split into its fields, to `dag`.
void read_directive(const std::vector<std::string>& parts, Dag& dag) {
  if (parts[0] == "node") {
    if (parts.size() != 4 && parts.size() != 5)
      throw std::runtime_error(
          "expected 'node <id> <kernel> <size> [release_ms]'");
    if (util::parse_uint(parts[1]) != dag.node_count())
      throw std::runtime_error("node ids must be dense and ascending");
    const double release =
        parts.size() == 5 ? util::parse_double(parts[4]) : 0.0;
    dag.add_node(parts[2], util::parse_uint(parts[3]), release);
  } else if (parts[0] == "edge") {
    if (parts.size() != 3) throw std::runtime_error("expected 'edge <src> <dst>'");
    dag.add_edge(parse_node_id(parts[1]), parse_node_id(parts[2]));
  } else {
    throw std::runtime_error("unknown directive '" + parts[0] + "'");
  }
}

template <class Error>
Error at_line(std::size_t line_no, const std::exception& e) {
  return Error("Dag::from_text line " + std::to_string(line_no) + ": " +
               e.what());
}

}  // namespace

Dag from_text(const std::string& text) {
  Dag dag;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    try {
      read_directive(fields(trimmed), dag);
    } catch (const std::invalid_argument& e) {
      throw at_line<std::invalid_argument>(line_no, e);
    } catch (const std::logic_error& e) {  // an edge that closes a cycle
      throw at_line<std::logic_error>(line_no, e);
    } catch (const std::runtime_error& e) {
      throw at_line<std::runtime_error>(line_no, e);
    }
  }
  return dag;
}

Dag load_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("Dag::load_text_file: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  Dag dag = from_text(buf.str());
  if (dag.node_count() == 0)
    throw std::runtime_error("Dag::load_text_file: '" + path +
                             "' has no node lines");
  return dag;
}

void save_text_file(const Dag& dag, const std::string& path) {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("Dag::save_text_file: cannot open '" + path + "'");
  out << to_text(dag);
  if (!out)
    throw std::runtime_error("Dag::save_text_file: write failed: " + path);
}

std::string to_dot(const Dag& dag, const std::string& graph_name) {
  std::string out = "digraph " + graph_name + " {\n";
  out += "  rankdir=TB;\n  node [shape=box];\n";
  for (NodeId i = 0; i < dag.node_count(); ++i) {
    const Node& n = dag.node(i);
    out += "  n" + std::to_string(i) + " [label=\"" + std::to_string(i) + ":" +
           n.kernel + "\\n" + std::to_string(n.data_size) + "\"];\n";
  }
  for (NodeId i = 0; i < dag.node_count(); ++i) {
    for (const NodeId s : dag.successors(i))
      out += "  n" + std::to_string(i) + " -> n" + std::to_string(s) + ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace apt::dag
