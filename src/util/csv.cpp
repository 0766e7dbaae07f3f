#include "util/csv.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace hyperdrive::util {

std::size_t CsvTable::column(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw std::out_of_range("csv column not found: " + name);
}

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> header)
    : out_(out), width_(header.size()) {
  write_fields(header);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  if (fields.size() != width_) {
    throw std::invalid_argument("csv row width mismatch");
  }
  write_fields(fields);
}

void CsvWriter::write_fields(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << csv_escape(fields[i]);
  }
  out_ << '\n';
}

std::string csv_escape(const std::string& field) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string csv_number(double x) {
  if (std::isinf(x)) return x > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", x);
  return buf;
}

std::string csv_number(std::uint64_t x) { return std::to_string(x); }

CsvTable parse_csv(std::istream& in) {
  CsvTable table;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_started = false;  // true once the current row has any content
  bool header_done = false;

  auto finish_row = [&] {
    row.push_back(std::move(field));
    field.clear();
    if (!header_done) {
      table.header = std::move(row);
      header_done = true;
    } else {
      if (row.size() != table.header.size()) throw std::runtime_error("csv ragged row");
      table.rows.push_back(std::move(row));
    }
    row.clear();
    row_started = false;
  };

  char c;
  while (in.get(c)) {
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get(c);
          field += '"';
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      row_started = true;
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_started = true;
        break;
      case ',':
        row.push_back(std::move(field));
        field.clear();
        row_started = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        if (row_started || !field.empty()) finish_row();
        break;
      default:
        field += c;
        row_started = true;
    }
  }
  if (in_quotes) throw std::runtime_error("csv unterminated quote");
  if (row_started || !field.empty()) finish_row();
  return table;
}

CsvTable parse_csv_string(const std::string& text) {
  std::istringstream in(text);
  return parse_csv(in);
}

CsvTable read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open csv file: " + path);
  return parse_csv(in);
}

}  // namespace hyperdrive::util
