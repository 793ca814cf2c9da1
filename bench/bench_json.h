// Machine-readable bench output: the row emitter every bench states its columns through, and
// a writer that maintains one top-level JSON object per file, one named section per bench
// run, so fig5/fig6/tab2 can each contribute their depth sweeps to the same
// BENCH_tx_batching.json. No external JSON dependency: the file format is constrained to
// what this writer itself produces ({"name":value,...} with balanced braces/brackets inside
// values), and anything unparsable is simply rewritten from scratch.
#ifndef EBBRT_BENCH_BENCH_JSON_H_
#define EBBRT_BENCH_BENCH_JSON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace ebbrt {
namespace bench {

// Preformatted JSON for a column, e.g. a nested list of records.
struct Json {
  std::string text;
};

// One output column: its name and its value as JSON text. Counts print as integers, rates
// with the column's printf precision, names as JSON strings, arrays of counts as JSON
// arrays. The same text goes to the stdout table and to the artifact, so a bench states
// each column once.
struct Col {
  Col(const char* col_name, std::uint64_t value) : name(col_name), json(std::to_string(value)) {}
  Col(const char* col_name, double value, int precision) : name(col_name) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    json = buf;
  }
  Col(const char* col_name, const char* text)
      : name(col_name), json(std::string("\"") + text + "\"") {}
  Col(const char* col_name, const std::vector<std::uint64_t>& values) : name(col_name) {
    json = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      json += (i == 0 ? "" : ", ") + std::to_string(values[i]);
    }
    json += "]";
  }
  Col(const char* col_name, Json raw) : name(col_name), json(std::move(raw.text)) {}

  std::string name;
  std::string json;
};

// One record: its columns in artifact order. `+` splices shared column groups in.
class Row {
 public:
  Row(std::initializer_list<Col> cols) : cols_(cols) {}
  const std::vector<Col>& cols() const { return cols_; }
  friend Row operator+(Row row, const Row& more) {
    row.cols_.insert(row.cols_.end(), more.cols_.begin(), more.cols_.end());
    return row;
  }

 private:
  std::vector<Col> cols_;
};

// count / ops, 0 for an empty schedule — every per-op column's denominator rule.
inline double PerOp(std::uint64_t count, std::uint64_t ops) {
  return ops != 0 ? static_cast<double>(count) / static_cast<double>(ops) : 0.0;
}

// The shared latency-quantile columns: every record that reports latency from an
// obs::Histogram carries these, so the validator checks ONE schema. Templated on the
// snapshot (obs::Histogram::Snapshot) to keep this header free of src includes.
template <typename Snapshot>
inline Row LatencyCols(const Snapshot& s) {
  return {{"samples", s.count},
          {"mean_ns", static_cast<std::uint64_t>(s.Mean())},
          {"p50_ns", s.P50()},
          {"p99_ns", s.P99()},
          {"p999_ns", s.P999()}};
}

// `[{...}, {...}]`: the records of one artifact section.
inline std::string RowsJson(const std::vector<Row>& rows) {
  std::string out = "[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out += r == 0 ? "{" : ", {";
    const std::vector<Col>& cols = rows[r].cols();
    for (std::size_t c = 0; c < cols.size(); ++c) {
      out += (c == 0 ? "\"" : ", \"") + cols[c].name + "\": " + cols[c].json;
    }
    out += "}";
  }
  out += "]";
  return out;
}

// Prints `rows` as a right-aligned table under a header of column names. Array-valued
// columns (per-shard counts, nested records) stay in the artifact only.
inline void PrintRows(const std::vector<Row>& rows) {
  if (rows.empty()) {
    return;
  }
  std::vector<std::vector<std::string>> columns;  // per column: the name, then each cell
  for (std::size_t c = 0; c < rows.front().cols().size(); ++c) {
    const Col& head = rows.front().cols()[c];
    if (head.json.front() == '[') {
      continue;
    }
    std::vector<std::string> column = {head.name};
    for (const Row& row : rows) {
      const std::string& json = row.cols()[c].json;
      column.push_back(json.front() == '"' ? json.substr(1, json.size() - 2) : json);
    }
    columns.push_back(std::move(column));
  }
  for (std::size_t line = 0; line <= rows.size(); ++line) {
    std::string text;
    for (const std::vector<std::string>& column : columns) {
      std::size_t width = 0;
      for (const std::string& cell : column) {
        width = std::max(width, cell.size());
      }
      text += (text.empty() ? "" : " ") + std::string(width - column[line].size(), ' ') +
              column[line];
    }
    std::printf("%s\n", text.c_str());
  }
}

inline void WriteJsonSection(const std::string& path, const std::string& name,
                             const std::string& value);

// The one row emitter: prints `rows` and writes them as section `section` of `path`.
inline void EmitRows(const std::string& path, const std::string& section,
                     const std::vector<Row>& rows) {
  PrintRows(rows);
  WriteJsonSection(path, section, RowsJson(rows));
  std::printf("# wrote section \"%s\" to %s\n", section.c_str(), path.c_str());
}

namespace json_detail {

// Splits `{"a":<raw>,"b":<raw>}` into (name, raw-value) pairs by tracking nesting depth.
// Returns false when the content is not a flat object of that shape.
inline bool ParseSections(const std::string& text,
                          std::vector<std::pair<std::string, std::string>>* out) {
  std::size_t i = text.find_first_not_of(" \t\r\n");
  if (i == std::string::npos || text[i] != '{') {
    return false;
  }
  ++i;
  for (;;) {
    i = text.find_first_not_of(" \t\r\n,", i);
    if (i == std::string::npos) {
      return false;
    }
    if (text[i] == '}') {
      return true;
    }
    if (text[i] != '"') {
      return false;
    }
    std::size_t name_end = text.find('"', i + 1);
    if (name_end == std::string::npos) {
      return false;
    }
    std::string name = text.substr(i + 1, name_end - i - 1);
    i = text.find_first_not_of(" \t\r\n", name_end + 1);
    if (i == std::string::npos || text[i] != ':') {
      return false;
    }
    ++i;
    i = text.find_first_not_of(" \t\r\n", i);
    if (i == std::string::npos) {
      return false;
    }
    // Scan the value: balanced {}/[] nesting, string-aware, until a top-level ',' or '}'.
    std::size_t start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
      char c = text[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0 && c == '}') {
          break;  // object close
        }
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    if (i >= text.size() && depth != 0) {
      return false;
    }
    std::string value = text.substr(start, i - start);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\n' ||
                              value.back() == '\r' || value.back() == '\t')) {
      value.pop_back();
    }
    out->emplace_back(std::move(name), std::move(value));
  }
}

}  // namespace json_detail

// Writes/replaces section `name` with raw JSON `value` in the object stored at `path`.
inline void WriteJsonSection(const std::string& path, const std::string& name,
                             const std::string& value) {
  std::vector<std::pair<std::string, std::string>> sections;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream buf;
      buf << in.rdbuf();
      std::vector<std::pair<std::string, std::string>> parsed;
      if (json_detail::ParseSections(buf.str(), &parsed)) {
        sections = std::move(parsed);
      }
    }
  }
  bool replaced = false;
  for (auto& section : sections) {
    if (section.first == name) {
      section.second = value;
      replaced = true;
    }
  }
  if (!replaced) {
    sections.emplace_back(name, value);
  }
  std::ofstream out(path, std::ios::trunc);
  out << "{\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    out << "  \"" << sections[i].first << "\": " << sections[i].second;
    out << (i + 1 < sections.size() ? ",\n" : "\n");
  }
  out << "}\n";
}

}  // namespace bench
}  // namespace ebbrt

#endif  // EBBRT_BENCH_BENCH_JSON_H_
