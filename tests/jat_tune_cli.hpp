// Runs the built jat_tune (JAT_TUNE_BIN, set by tests/CMakeLists.txt) for
// the tests that drive the command line itself.
#pragma once

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace jat {

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs jat_tune with `args`, stdout and stderr to `log`; returns the exit
/// code (-1 when it did not exit normally).
inline int jat_tune(const std::string& args, const std::string& log) {
  const std::string command =
      std::string("'") + JAT_TUNE_BIN + "' " + args + " > '" + log + "' 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace jat
