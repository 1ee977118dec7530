#include "proc.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace perfbench
{

namespace
{

std::mutex children_mutex;
std::vector<pid_t> children;

void
track(pid_t pid)
{
    std::lock_guard<std::mutex> lock(children_mutex);
    children.push_back(pid);
}

void
untrack(pid_t pid)
{
    std::lock_guard<std::mutex> lock(children_mutex);
    children.erase(std::remove(children.begin(), children.end(), pid),
                   children.end());
}

std::vector<char *>
cArgv(const std::vector<std::string> &argv)
{
    std::vector<char *> out;
    for (const auto &a : argv)
        out.push_back(const_cast<char *>(a.c_str()));
    out.push_back(nullptr);
    return out;
}

/** Fork @p argv with stdout/stderr on the given descriptors. */
pid_t
forkExec(const std::vector<std::string> &argv, int out_fd, int err_fd)
{
    auto args = cArgv(argv);
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        const int null_in = ::open("/dev/null", O_RDONLY);
        ::dup2(null_in, 0);
        ::dup2(out_fd, 1);
        ::dup2(err_fd, 2);
        // Pipes and client sockets of the harness stay with it.
        for (int fd = 3; fd < 1024; ++fd)
            ::close(fd);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    track(pid);
    return pid;
}

ExitInfo
fromStatus(int status, const struct rusage &usage)
{
    ExitInfo info;
    info.exited = true;
    info.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    info.max_rss_mib = double(usage.ru_maxrss) / 1024.0;
    return info;
}

} // namespace

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
sleepFor(double seconds)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

pid_t
spawnDetached(const std::vector<std::string> &argv, const std::string &log)
{
    const int fd = log.empty()
                       ? ::open("/dev/null", O_WRONLY)
                       : ::open(log.c_str(),
                                O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        throw std::runtime_error("cannot open log " + log);
    const pid_t pid = forkExec(argv, fd, fd);
    ::close(fd);
    return pid;
}

ExitInfo
reap(pid_t pid, double timeout_s)
{
    const double deadline = now() + timeout_s;
    for (;;) {
        int status = 0;
        struct rusage usage{};
        const pid_t got = ::wait4(pid, &status, WNOHANG, &usage);
        if (got == pid) {
            untrack(pid);
            return fromStatus(status, usage);
        }
        if (got < 0 && errno != EINTR) {
            untrack(pid);
            return {};
        }
        if (now() > deadline) {
            ::kill(pid, SIGKILL);
            ::wait4(pid, &status, 0, &usage);
            untrack(pid);
            return {};
        }
        sleepFor(0.0005);
    }
}

RunOutput
runCapture(const std::vector<std::string> &argv, double timeout_s)
{
    int out_pipe[2], err_pipe[2];
    if (::pipe(out_pipe) != 0 || ::pipe(err_pipe) != 0)
        throw std::runtime_error("pipe failed");
    RunOutput run;
    run.start = now();
    const pid_t pid = forkExec(argv, out_pipe[1], err_pipe[1]);
    ::close(out_pipe[1]);
    ::close(err_pipe[1]);

    std::string partial;
    bool out_open = true, err_open = true;
    const double deadline = run.start + timeout_s;
    char buf[65536];
    while ((out_open || err_open) && now() < deadline) {
        struct pollfd fds[2] = {{out_pipe[0], POLLIN, 0},
                                {err_pipe[0], POLLIN, 0}};
        const int ready = ::poll(fds, 2, 100);
        if (ready < 0 && errno == EINTR)
            continue;
        const double t = now();
        if (out_open && (fds[0].revents & (POLLIN | POLLHUP))) {
            const ssize_t n = ::read(out_pipe[0], buf, sizeof(buf));
            if (n > 0) {
                run.out.append(buf, std::size_t(n));
            } else {
                out_open = false;
                run.end = t;
            }
        }
        if (err_open && (fds[1].revents & (POLLIN | POLLHUP))) {
            const ssize_t n = ::read(err_pipe[0], buf, sizeof(buf));
            if (n > 0) {
                partial.append(buf, std::size_t(n));
                std::size_t nl;
                while ((nl = partial.find('\n')) != std::string::npos) {
                    run.err.push_back({t, partial.substr(0, nl)});
                    partial.erase(0, nl + 1);
                }
            } else {
                err_open = false;
            }
        }
    }
    ::close(out_pipe[0]);
    ::close(err_pipe[0]);
    run.exit = reap(pid, out_open || err_open ? 0.0 : timeout_s);
    if (run.end == 0.0)
        run.end = now();
    return run;
}

void
killAll()
{
    std::vector<pid_t> live;
    {
        std::lock_guard<std::mutex> lock(children_mutex);
        live.swap(children);
    }
    for (const pid_t pid : live)
        ::kill(pid, SIGKILL);
    for (const pid_t pid : live)
        ::waitpid(pid, nullptr, 0);
}

void
installCleanup()
{
    // A peer that closes its socket must surface as an error reply,
    // not kill the harness.
    ::signal(SIGPIPE, SIG_IGN);
    std::atexit(killAll);
}

} // namespace perfbench
