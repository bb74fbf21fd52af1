#include "modelcheck/export.h"

#include <set>

namespace lbsa::modelcheck {
namespace {

// A small qualitative palette for univalent values (cycled).
constexpr const char* kValueColors[] = {"#4c78a8", "#59a14f", "#b07aa1",
                                        "#76b7b2", "#9c755f", "#edc948"};

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string to_dot(const sim::Protocol& protocol, const ConfigGraph& graph,
                   const ValenceAnalyzer* analyzer,
                   const DotOptions& options) {
  const std::size_t n = graph.node_count();
  const std::size_t shown = std::min(n, options.max_nodes);

  std::set<std::uint32_t> critical;
  if (analyzer != nullptr) {
    for (std::uint32_t id : analyzer->critical_nodes()) critical.insert(id);
  }

  std::string dot = "digraph \"" + escape(protocol.name()) + "\" {\n";
  dot += "  rankdir=TB;\n  node [shape=circle, style=filled, "
         "fontsize=8, width=0.3, fixedsize=true];\n";

  for (std::uint32_t id = 0; id < shown; ++id) {
    std::string color = "#d9d9d9";  // decision-free grey
    std::string label = std::to_string(id);
    if (analyzer != nullptr) {
      if (analyzer->is_multivalent(id)) {
        color = "#f28e2b";  // amber: multivalent
      } else if (analyzer->reachable_count(id) == 1) {
        const Value v = analyzer->univalent_value(id);
        // Stable hue per value via its index in the universe.
        for (std::size_t i = 0; i < analyzer->universe().size(); ++i) {
          if (analyzer->universe()[i] == v) {
            color = kValueColors[i % std::size(kValueColors)];
            break;
          }
        }
      }
    }
    dot += "  n" + std::to_string(id) + " [fillcolor=\"" + color + "\"";
    if (critical.contains(id)) dot += ", penwidth=3";
    if (id == graph.root()) dot += ", shape=doublecircle";
    dot += ", label=\"" + label + "\"];\n";
  }

  for (std::uint32_t from = 0; from < shown; ++from) {
    for (const Edge& edge : graph.edges(from)) {
      if (edge.to >= shown) continue;
      dot += "  n" + std::to_string(from) + " -> n" +
             std::to_string(edge.to);
      if (options.include_step_labels) {
        dot += " [label=\"p" + std::to_string(edge.pid) + "\", fontsize=7]";
      }
      dot += ";\n";
    }
  }

  if (shown < n) {
    dot += "  elided [shape=note, style=dashed, fixedsize=false, "
           "label=\"+" +
           std::to_string(n - shown) + " more configurations\"];\n";
  }
  dot += "}\n";
  return dot;
}

}  // namespace lbsa::modelcheck
