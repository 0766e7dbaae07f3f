#include "util/spec_parser.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/cli_options.hpp"

namespace hyperdrive::util {

SpecParser::SpecParser(std::istream& in, std::string format_name)
    : in_(in), format_(std::move(format_name)) {}

bool SpecParser::next_line() {
  std::string raw;
  while (std::getline(in_, raw)) {
    ++line_no_;
    if (const auto hash = raw.find('#'); hash != std::string::npos) raw.erase(hash);
    tokens_.clear();
    tokens_.str(raw);
    if (tokens_ >> directive_) return true;  // skip blank / comment-only lines
  }
  return false;
}

std::string SpecParser::word(const char* what) {
  std::string token;
  if (!(tokens_ >> token)) fail(std::string("missing ") + what);
  return token;
}

std::optional<std::string> SpecParser::optional_word() {
  std::string token;
  if (!(tokens_ >> token)) return std::nullopt;
  return token;
}

double SpecParser::number(const char* what) {
  if (const auto value = optional_number(what)) return *value;
  fail(std::string("missing ") + what);
}

std::optional<double> SpecParser::optional_number(const char* what) {
  std::string token;
  if (!(tokens_ >> token)) return std::nullopt;
  if (token == "inf") return std::numeric_limits<double>::infinity();
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
    return value;
  } catch (const std::exception&) {
    fail(std::string("bad ") + what + " '" + token + "'");
  }
}

std::uint64_t SpecParser::integer(const char* what, std::uint64_t max) {
  const std::string token = word(what);
  std::uint64_t value = 0;
  if (!cli::Options::parse_uint(token, value) || value > max) {
    fail(std::string("bad ") + what + " '" + token + "'");
  }
  return value;
}

void SpecParser::finish_line() {
  std::string trailing;
  if (tokens_ >> trailing) fail("trailing token '" + trailing + "'");
}

void SpecParser::fail(const std::string& what) const {
  throw std::invalid_argument(format_ + " line " + std::to_string(line_no_) + ": " + what);
}

void write_spec_time(std::ostream& out, SimTime t) {
  if (t == SimTime::infinity()) {
    out << "inf";
  } else {
    out << t.to_seconds();
  }
}

}  // namespace hyperdrive::util
