// ProcessNode — the out-of-process peer: a spawned dici_node child.
//
// The coordinator's slot for a node served by a REAL process. Spawning
// uses posix_spawn (not raw fork: the coordinator is heavily threaded
// and sanitized, and posix_spawn sidesteps every fork-in-threaded-
// program hazard) with one of two bootstrap shapes matching the two
// process transports:
//
//   kFork — the node end of a CLOEXEC socketpair is dup2()'d onto fd 3
//           for the child (`dici_node --id N --fd 3`). CLOEXEC on the
//           originals means a child inherits exactly its own link, not
//           every sibling's.
//   kTcp  — the child connects back (`--connect 127.0.0.1:PORT`) to a
//           TcpListener the coordinator opened per node.
//
// kill() is a real SIGKILL: the child's fds collapse, the coordinator's
// receiver sees kClosed, and PR 9's failure machinery (fail_node,
// failover, re-join) runs against an actual process death. Destruction
// reaps: a short grace for the orderly exit the coordinator's
// kShutdown/close triggers, then SIGKILL + blocking waitpid — never a
// zombie (cluster_engine_test pins this with a kill(pid, 0) sweep).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/node.hpp"

namespace dici::cluster {

class ProcessNode final : public NodePeer {
 public:
  /// Spawn `binary` serving node `id` over the socketpair end `node_fd`
  /// (takes ownership: dup2()'d to the child's fd 3, then closed in the
  /// parent). Null, with a diagnostic in *error, if the spawn fails.
  static std::unique_ptr<ProcessNode> spawn_fd(const std::string& binary,
                                               std::uint32_t id, int node_fd,
                                               std::string* error);

  /// Spawn `binary` serving node `id`, connecting back to the
  /// coordinator's loopback listener on `port`. Null, with a diagnostic
  /// in *error, if the spawn fails.
  static std::unique_ptr<ProcessNode> spawn_connect(const std::string& binary,
                                                    std::uint32_t id,
                                                    std::uint16_t port,
                                                    std::string* error);

  /// The dici_node binary to spawn: the DICI_NODE_BIN env override if
  /// set, else "dici_node" next to the running executable (every CMake
  /// target lands in the same build directory).
  static std::string default_binary();

  ~ProcessNode() override;

  ProcessNode(const ProcessNode&) = delete;
  ProcessNode& operator=(const ProcessNode&) = delete;

  /// SIGKILL — a true process death, no goodbye of any kind.
  void kill() override;
  int pid() const override { return pid_; }

 private:
  ProcessNode() = default;

  /// Shared spawn path: argv assembly + posix_spawn (+ dup2 of the
  /// link fd onto the child's fd 3 when `dup_fd` >= 0).
  static std::unique_ptr<ProcessNode> spawn(const std::string& binary,
                                            std::vector<std::string> args,
                                            int dup_fd, std::string* error);

  int pid_ = -1;
  std::atomic<bool> killed_{false};
};

}  // namespace dici::cluster
