#pragma once

#include <fstream>
#include <string>

namespace lakeharbor {

/// Threads of this process per /proc/self/status, or -1 when unreadable.
inline int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

}  // namespace lakeharbor
