// cli::Options — a declarative command-line flag table shared by the
// executables (hyperdrive_cli, hyperdrive_serve, tools/trace_sweep and every
// bench). Each flag is registered once with its value placeholder and help
// text; `--help` output is generated from the table, so the usage screen can
// never drift from the parser again (the old hand-written print_usage had
// exactly that failure mode).
//
// Deliberately tiny: long options only ("--name value"), sections for help
// grouping, typed bind() helpers for the common scalar targets, and a custom
// handler escape hatch for anything structured (fault-crash specs, repeated
// study files). Parse errors print to stderr and return false — the caller
// decides the exit code.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace hyperdrive::cli {

class Options {
 public:
  /// `program` is the executable name printed in the help header; `summary`
  /// is the one-line description under it.
  Options(std::string program, std::string summary);

  /// Handler of a value-taking flag. Throw std::invalid_argument (or return
  /// false) to reject the value; parse() prints the diagnostic.
  using ValueHandler = std::function<bool(const std::string&)>;
  /// Handler of a bare flag (no value).
  using FlagHandler = std::function<void()>;

  /// Start a new help section; subsequent flags are listed under `title`.
  void section(std::string title);

  /// Register "--name <value_name>" with a custom handler. Repeatable flags
  /// are just flags whose handler appends.
  void add(std::string name, std::string value_name, std::string help,
           ValueHandler handler);
  /// Register a bare "--name" flag.
  void add_flag(std::string name, std::string help, FlagHandler handler);
  /// Register a bare "--name" flag that sets `target` to true.
  void add_flag(std::string name, std::string help, bool& target);

  /// Register "--name <value_name>" bound to a scalar target. Supported T:
  /// std::string, integral types (parsed base-10, must consume the whole
  /// token and fit in T), and floating-point types.
  template <typename T>
  void bind(std::string name, std::string value_name, std::string help, T& target) {
    add(std::move(name), std::move(value_name), std::move(help),
        [&target](const std::string& text) {
          if constexpr (std::is_same_v<T, std::string>) {
            target = text;
            return true;
          } else if constexpr (std::is_integral_v<T>) {
            std::uint64_t parsed = 0;
            if (!parse_uint(text, parsed) ||
                parsed > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
              return false;
            }
            target = static_cast<T>(parsed);
            return true;
          } else {
            static_assert(std::is_floating_point_v<T>, "unsupported bind target");
            double parsed = 0.0;
            if (!parse_double(text, parsed)) return false;
            target = static_cast<T>(parsed);
            return true;
          }
        });
  }

  /// Parse argv. "--help" / "-h" print the generated help and exit(0). On an
  /// unknown flag, a missing value, or a rejected value: prints a diagnostic
  /// to stderr and returns false.
  [[nodiscard]] bool parse(int argc, char** argv) const;

  /// The generated usage screen (what --help prints to stdout).
  void print_help(std::FILE* out) const;

  /// Strict unsigned parse: decimal digits only (no sign, space or
  /// exponent) that fit in 64 bits; false on failure. SpecParser::integer
  /// and hand-rolled command lines (--fault-crash, hyperdrive_client)
  /// share it.
  static bool parse_uint(const std::string& text, std::uint64_t& out);
  /// Strict double parse (whole token); false on failure.
  static bool parse_double(const std::string& text, double& out);

 private:
  struct Entry {
    std::string name;        // "--flag"
    std::string value_name;  // empty for bare flags
    std::string help;
    ValueHandler value_handler;  // set iff value-taking
    FlagHandler flag_handler;    // set iff bare
    std::string section;         // section title active at registration
  };

  [[nodiscard]] const Entry* find(const std::string& name) const;

  std::string program_;
  std::string summary_;
  std::string current_section_;
  std::vector<Entry> entries_;
};

}  // namespace hyperdrive::cli
