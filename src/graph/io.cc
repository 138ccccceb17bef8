#include "graph/io.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/serial.h"

namespace apspark::graph {

namespace {
constexpr std::uint32_t kBinaryMagic = 0x41505347;  // "APSG"
constexpr std::uint32_t kBinaryVersion = 1;

/// A vertex count is usable when its dense n x n plane of doubles has a byte
/// size int64 can hold; every solve sizes that plane from n.
Status CheckVertexCount(std::int64_t n) {
  if (n < 0) {
    return InvalidArgumentError("negative vertex count " + std::to_string(n));
  }
  if (n > 0 && n > std::numeric_limits<std::int64_t>::max() / 8 / n) {
    return InvalidArgumentError("vertex count " + std::to_string(n) +
                                " too large: its n x n plane overflows");
  }
  return Status::Ok();
}
}  // namespace

void WriteEdgeListText(const Graph& g, std::ostream& out) {
  out << "# APSPark edge list\n";
  out << "apsp " << g.num_vertices() << " " << (g.directed() ? 1 : 0) << "\n";
  out.precision(17);
  for (const Edge& e : g.edges()) {
    out << e.u << " " << e.v << " " << e.weight << "\n";
  }
}

Result<Graph> ReadEdgeListText(std::istream& in) {
  std::string line;
  std::int64_t n = -1;
  bool directed = false;
  std::vector<Edge> edges;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    if (n < 0) {
      const std::string where = "line " + std::to_string(line_no) + ": ";
      std::string tag;
      std::string directed_flag;
      if (!(fields >> tag >> n >> directed_flag) || tag != "apsp") {
        return InvalidArgumentError(where +
                                    "expected header 'apsp <n> <directed>'");
      }
      Status valid = CheckVertexCount(n);
      if (!valid.ok()) return InvalidArgumentError(where + valid.message());
      if (directed_flag != "0" && directed_flag != "1") {
        return InvalidArgumentError(where + "directed flag must be 0 or 1, " +
                                    "got '" + directed_flag + "'");
      }
      directed = directed_flag == "1";
      continue;
    }
    Edge e;
    if (!(fields >> e.u >> e.v >> e.weight)) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": expected '<u> <v> <weight>'");
    }
    edges.push_back(e);
  }
  if (n < 0) return InvalidArgumentError("missing 'apsp <n> <directed>' header");
  Graph g(n, directed);
  for (const Edge& e : edges) {
    Status status = g.AddEdge(e.u, e.v, e.weight);
    if (!status.ok()) return status;
  }
  return g;
}

Status WriteEdgeListTextFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return InternalError("cannot open for writing: " + path);
  WriteEdgeListText(g, out);
  return out ? Status::Ok() : InternalError("write failed: " + path);
}

Result<Graph> ReadEdgeListTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open: " + path);
  return ReadEdgeListText(in);
}

std::vector<std::uint8_t> SerializeGraph(const Graph& g) {
  BinaryWriter writer;
  writer.Write(kBinaryMagic);
  writer.Write(kBinaryVersion);
  writer.Write(g.num_vertices());
  writer.Write(static_cast<std::uint8_t>(g.directed() ? 1 : 0));
  writer.Write(static_cast<std::uint64_t>(g.num_edges()));
  for (const Edge& e : g.edges()) {
    writer.Write(e.u);
    writer.Write(e.v);
    writer.Write(e.weight);
  }
  return std::move(writer).TakeBuffer();
}

Result<Graph> DeserializeGraph(const std::vector<std::uint8_t>& bytes) {
  BinaryReader reader(bytes);
  auto magic = reader.Read<std::uint32_t>();
  if (!magic.ok() || *magic != kBinaryMagic) {
    return InvalidArgumentError("not an APSPark binary graph (bad magic)");
  }
  auto version = reader.Read<std::uint32_t>();
  if (!version.ok() || *version != kBinaryVersion) {
    return InvalidArgumentError("unsupported binary graph version");
  }
  auto n = reader.Read<VertexId>();
  if (!n.ok()) return n.status();
  Status valid = CheckVertexCount(*n);
  if (!valid.ok()) return valid;
  auto directed = reader.Read<std::uint8_t>();
  if (!directed.ok()) return directed.status();
  if (*directed > 1) {
    return InvalidArgumentError("binary graph directed flag must be 0 or 1");
  }
  auto count = reader.Read<std::uint64_t>();
  if (!count.ok()) return count.status();
  Graph g(*n, *directed != 0);
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto u = reader.Read<VertexId>();
    auto v = reader.Read<VertexId>();
    auto w = reader.Read<double>();
    if (!u.ok() || !v.ok() || !w.ok()) {
      return OutOfRangeError("truncated binary graph");
    }
    Status status = g.AddEdge(*u, *v, *w);
    if (!status.ok()) return status;
  }
  if (!reader.AtEnd()) {
    return InvalidArgumentError("trailing bytes after binary graph");
  }
  return g;
}

Status WriteGraphBinaryFile(const Graph& g, const std::string& path) {
  const auto bytes = SerializeGraph(g);
  std::ofstream out(path, std::ios::binary);
  if (!out) return InternalError("cannot open for writing: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out ? Status::Ok() : InternalError("write failed: " + path);
}

Result<Graph> ReadGraphBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return DeserializeGraph(bytes);
}

}  // namespace apspark::graph
