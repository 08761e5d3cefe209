#include "src/cluster/process_node.hpp"

#include <libgen.h>
#include <limits.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "src/util/assert.hpp"

extern char** environ;

namespace dici::cluster {
namespace {

/// How long a destructed ProcessNode waits for the orderly exit the
/// coordinator's link close/kShutdown triggers before escalating to
/// SIGKILL. The child's exit path is "recv returns kClosed → return
/// from main", so this is normally milliseconds.
constexpr auto kReapGrace = std::chrono::seconds(2);

}  // namespace

std::unique_ptr<ProcessNode> ProcessNode::spawn(const std::string& binary,
                                                std::vector<std::string> args,
                                                int dup_fd,
                                                std::string* error) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (dup_fd >= 0) {
    // The dup2 clears FD_CLOEXEC on the child's fd 3; the CLOEXEC
    // original never crosses the exec, so siblings don't leak links
    // into each other.
    posix_spawn_file_actions_adddup2(&actions, dup_fd, 3);
  }
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(),
                    environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = "spawn of node binary \"" + binary + "\" failed: errno=" +
             std::to_string(rc) + " (" + std::strerror(rc) + ")";
    return nullptr;
  }

  auto node = std::unique_ptr<ProcessNode>(new ProcessNode());
  node->pid_ = pid;
  return node;
}

std::unique_ptr<ProcessNode> ProcessNode::spawn_fd(const std::string& binary,
                                                   std::uint32_t id,
                                                   int node_fd,
                                                   std::string* error) {
  auto node = spawn(binary, {"--id", std::to_string(id), "--fd", "3"},
                    node_fd, error);
  ::close(node_fd);  // the child holds its dup; the parent's copy is done
  return node;
}

std::unique_ptr<ProcessNode> ProcessNode::spawn_connect(
    const std::string& binary, std::uint32_t id, std::uint16_t port,
    std::string* error) {
  return spawn(binary,
               {"--id", std::to_string(id), "--connect",
                "127.0.0.1:" + std::to_string(port)},
               -1, error);
}

std::string ProcessNode::default_binary() {
  if (const char* env = std::getenv("DICI_NODE_BIN"); env != nullptr && *env)
    return env;
  char exe[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  DICI_CHECK_FMT(n > 0, "readlink(/proc/self/exe) failed: errno=%d (%s)",
                 errno, std::strerror(errno));
  exe[n] = '\0';
  return std::string(::dirname(exe)) + "/dici_node";
}

ProcessNode::~ProcessNode() {
  if (pid_ <= 0) return;
  int status = 0;
  if (!killed_.load(std::memory_order_acquire)) {
    const auto deadline = std::chrono::steady_clock::now() + kReapGrace;
    while (std::chrono::steady_clock::now() < deadline) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno == ECHILD)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // The grace expired: the child is wedged (or the coordinator forgot
    // to close its link first). A node death is always survivable by
    // design, so escalate rather than hang the coordinator.
    ::kill(pid_, SIGKILL);
  }
  ::waitpid(pid_, &status, 0);
}

void ProcessNode::kill() {
  bool expected = false;
  if (killed_.compare_exchange_strong(expected, true)) {
    ::kill(pid_, SIGKILL);
    // Reaping waits for the destructor: the coordinator's receiver must
    // first observe the death the way a remote peer would — kClosed on
    // the wire, not a wait status.
  }
}

}  // namespace dici::cluster
