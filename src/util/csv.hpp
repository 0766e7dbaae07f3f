// Minimal CSV reader/writer for experiment traces (§7.1 Trace Generator).
// Handles quoting for fields containing commas, quotes, or newlines; that is
// all the trace format needs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace hyperdrive::util {

/// A parsed CSV table: a header row plus data rows of equal width.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column; throws std::out_of_range if absent.
  [[nodiscard]] std::size_t column(const std::string& name) const;
};

class CsvWriter {
 public:
  /// Writes the header immediately. The stream must outlive the writer.
  CsvWriter(std::ostream& out, std::vector<std::string> header);

  /// Writes one row; throws std::invalid_argument if the width differs
  /// from the header width.
  void write_row(const std::vector<std::string>& fields);

 private:
  std::ostream& out_;
  std::size_t width_;
  void write_fields(const std::vector<std::string>& fields);
};

/// Quote a single field if needed (RFC-4180 style).
[[nodiscard]] std::string csv_escape(const std::string& field);

/// The one number format of the byte-deterministic CSVs (sweep, multi-study
/// and metrics tables): fixed "%.6f", infinities (the time to a target never
/// reached) as "inf" / "-inf".
[[nodiscard]] std::string csv_number(double x);
/// Integral counters and seeds, in full decimal.
[[nodiscard]] std::string csv_number(std::uint64_t x);

/// Parse an entire CSV document (first row = header).
/// Throws std::runtime_error on ragged rows or unterminated quotes.
[[nodiscard]] CsvTable parse_csv(std::istream& in);
[[nodiscard]] CsvTable parse_csv_string(const std::string& text);

/// Read and parse a CSV file; throws std::runtime_error if unreadable.
[[nodiscard]] CsvTable read_csv_file(const std::string& path);

}  // namespace hyperdrive::util
