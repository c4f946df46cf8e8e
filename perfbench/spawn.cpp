// perfbench_spawn: runs one command and reports its own resource use.
//
//   perfbench_spawn REPORT_FILE COMMAND [ARG...]
//
// Forks, execs COMMAND, waits for it with wait4(), and writes
// "<exit code> <wall seconds> <peak RSS KiB>" to REPORT_FILE. Exits with
// the command's exit code. SIGTERM or SIGINT to the launcher kills the
// command, which is still waited for, so stopping the launcher leaves
// nothing running.
//
// Peak RSS must come from a small parent: Linux carries the parent's
// memory high-water mark into a child's ru_maxrss across exec, so a
// command started straight from the Python benchmark would report at
// least the interpreter's RSS. This launcher's own few MiB are the floor.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>

namespace {

volatile pid_t child = 0;

void kill_child(int) {
  if (child > 0) kill(child, SIGKILL);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: perfbench_spawn REPORT_FILE COMMAND [ARG...]\n");
    return 2;
  }
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 2;
  }
  if (pid == 0) {
    // Should the launcher itself be killed outright, the command dies too.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    execvp(argv[2], argv + 2);
    std::perror("perfbench_spawn: exec");
    _exit(127);
  }
  child = pid;
  struct sigaction stop{};
  stop.sa_handler = kill_child;
  stop.sa_flags = SA_RESTART;  // wait4 below then reaps the killed command
  sigaction(SIGTERM, &stop, nullptr);
  sigaction(SIGINT, &stop, nullptr);
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("perfbench_spawn: wait4");
    return 2;
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr) {
    std::perror("perfbench_spawn: report file");
    return 2;
  }
  std::fprintf(report, "%d %.9f %ld\n", code, wall, usage.ru_maxrss);
  std::fclose(report);
  return code;
}
