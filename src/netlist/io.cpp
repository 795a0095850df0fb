#include "netlist/io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace xring::netlist {

namespace {

[[noreturn]] void reject(int lineno, const std::string& what) {
  throw std::invalid_argument("line " + std::to_string(lineno) + ": " + what);
}

}  // namespace

Floorplan read_floorplan(std::istream& in) {
  geom::Coord width = 0, height = 0;
  std::vector<Node> nodes;
  std::vector<int> node_lines;  // source line of each node
  std::unordered_map<geom::Point, std::size_t> by_site;  // site -> node index
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;  // blank or comment-only line
    if (directive == "die") {
      if (!(ls >> width >> height) || width <= 0 || height <= 0) {
        reject(lineno, "malformed die directive");
      }
      if (width > kMaxCoord || height > kMaxCoord) {
        reject(lineno, "die side exceeds " + std::to_string(kMaxCoord) + " um");
      }
    } else if (directive == "node") {
      Node n;
      if (!(ls >> n.name >> n.position.x >> n.position.y)) {
        reject(lineno, "malformed node directive");
      }
      if (n.position.x > kMaxCoord || n.position.y > kMaxCoord) {
        reject(lineno, "node '" + n.name + "' coordinate exceeds " +
                           std::to_string(kMaxCoord) + " um");
      }
      const auto [it, fresh] = by_site.emplace(n.position, nodes.size());
      if (!fresh) {
        reject(lineno, "node '" + n.name + "' repeats the coordinates of node '" +
                           nodes[it->second].name + "' on line " +
                           std::to_string(node_lines[it->second]));
      }
      nodes.push_back(std::move(n));
      node_lines.push_back(lineno);
    } else {
      reject(lineno, "unknown directive '" + directive + "'");
    }
  }
  if (nodes.empty()) throw std::invalid_argument("floorplan has no nodes");
  if (width == 0 || height == 0) {
    // Derive the die from the node bounding box with a one-pitch margin.
    geom::Coord max_x = 0, max_y = 0;
    for (const Node& n : nodes) {
      max_x = std::max(max_x, n.position.x);
      max_y = std::max(max_y, n.position.y);
    }
    width = max_x + 1000;
    height = max_y + 1000;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const geom::Point& p = nodes[i].position;
    if (p.x < 0 || p.y < 0 || p.x > width || p.y > height) {
      reject(node_lines[i], "node '" + nodes[i].name + "' at " +
                                geom::to_string(p) + " lies outside the die [0, " +
                                std::to_string(width) + "] x [0, " +
                                std::to_string(height) + "]");
    }
  }
  return Floorplan(std::move(nodes), width, height);
}

Floorplan load_floorplan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open floorplan file: " + path);
  return read_floorplan(in);
}

void write_floorplan(const Floorplan& floorplan, std::ostream& out) {
  out << "# xring floorplan: " << floorplan.size() << " nodes\n";
  out << "die " << floorplan.die_width() << " " << floorplan.die_height()
      << "\n";
  for (const Node& n : floorplan.nodes()) {
    out << "node " << n.name << " " << n.position.x << " " << n.position.y
        << "\n";
  }
}

void save_floorplan(const Floorplan& floorplan, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write floorplan file: " + path);
  write_floorplan(floorplan, out);
}

}  // namespace xring::netlist
