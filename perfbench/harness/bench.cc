#include "bench.hh"

#include <signal.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "batch/report_text.hh"
#include "service/client.hh"

namespace perfbench
{

double
Samples::median() const
{
    if (v.empty())
        return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double
Samples::tail(double *pct) const
{
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    if (n < 11) {
        *pct = 0.0;
        return 0.0;
    }
    *pct = 100.0 * double(n - 10) / double(n);
    return s[n - 11];
}

void
Report::set(const std::string &name, double value)
{
    for (auto &m : metrics) {
        if (m.first == name) {
            m.second = value;
            return;
        }
    }
    metrics.emplace_back(name, value);
}

void
Report::fail(const std::string &why, std::uint64_t n)
{
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
    op(false, n);
}

void
Report::latency(const std::string &name, const Samples &ms)
{
    double pct = 0.0;
    const double tail = ms.tail(&pct);
    if (ms.size() < 11)
        fail(name + ": fewer than 11 samples, no tail");
    set(name + "_p50_ms", ms.median());
    set(name + "_tail_ms", tail);
    std::printf("# %s: n=%zu p50=%.4f ms tail=p%.1f=%.4f ms "
                "(10 samples beyond)\n",
                name.c_str(), ms.size(), ms.median(), pct, tail);
}

std::string
tsvRow(const std::string &workload, const std::string &config,
       const std::string &schedule, const std::string &method,
       const delorean::sampling::MethodResult &r)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = ::open_memstream(&buf, &len);
    if (!f)
        throw std::runtime_error("open_memstream failed");
    delorean::batch::printResultRowTsv(f, workload, config, schedule,
                                       method, r, false);
    std::fclose(f);
    std::string row(buf, len);
    std::free(buf);
    while (!row.empty() && row.back() == '\n')
        row.pop_back();
    return row;
}

std::vector<std::string>
tsvRows(const std::string &out)
{
    std::vector<std::string> rows;
    std::istringstream is(out);
    std::string line;
    while (std::getline(is, line))
        if (!line.empty() && line[0] != '#')
            rows.push_back(line);
    return rows;
}

std::string
rowId(const std::string &row)
{
    std::size_t from = 0, pos = 0;
    for (int i = 0; i < 4; ++i) {
        pos = row.find('\t', from);
        if (pos == std::string::npos)
            return row;
        from = pos + 1;
    }
    return row.substr(0, pos);
}

std::string
wrongCpi(const std::string &row)
{
    const std::string id = rowId(row);
    return id + "\t-1" + row.substr(row.find('\t', id.size() + 1));
}

double
rowField(const std::string &row, std::size_t i)
{
    std::size_t pos = 0;
    for (std::size_t k = 0; k < i; ++k) {
        pos = row.find('\t', pos);
        if (pos == std::string::npos)
            return std::nan("");
        ++pos;
    }
    return std::strtod(row.c_str() + pos, nullptr);
}

std::string
Reference::find(const std::string &workload, const std::string &config,
                const std::string &schedule,
                const std::string &method) const
{
    const auto it =
        rows.find(workload + "\t" + config + "\t" + schedule + "\t" +
                  method);
    return it == rows.end() ? std::string() : it->second;
}

bool
runReference(const Options &opt, const std::string &plan_path,
             unsigned threads, Reference &ref)
{
    const auto run = runCapture({opt.batchRun(), "run", plan_path,
                                 "--no-cache", "--quiet", "--threads",
                                 std::to_string(threads)},
                                150.0);
    if (!run.exit.exited || run.exit.status != 0) {
        std::fprintf(stderr, "perfbench: reference run of %s failed\n",
                     plan_path.c_str());
        return false;
    }
    bool corrupted = false;
    for (std::string line : tsvRows(run.out)) {
        if (opt.wrong_reference && !corrupted &&
            line.find("\tdelorean\t") != std::string::npos) {
            line = wrongCpi(line);
            corrupted = true;
        }
        ref.rows[rowId(line)] = line;
    }
    return !ref.rows.empty();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
    if (!os)
        throw std::runtime_error("cannot write " + path);
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
Accuracy::add(const std::string &delorean_row, const std::string &smarts_row)
{
    // TSV columns: 4 = cpi, 5 = mpki.
    const double cpi = rowField(delorean_row, 4);
    const double ref_cpi = rowField(smarts_row, 4);
    const double err =
        100.0 * std::fabs(cpi - ref_cpi) / std::max(ref_cpi, 1e-12);
    cpi_err_sum += err;
    cpi_err_max = std::max(cpi_err_max, err);
    mpki_err_sum +=
        std::fabs(rowField(delorean_row, 5) - rowField(smarts_row, 5));
    ++cells;
}

void
Accuracy::report(Report &rep) const
{
    const double n = double(std::max<std::size_t>(cells, 1));
    rep.set("cpi_err_pct", cpi_err_sum / n);
    rep.set("cpi_err_max_pct", cpi_err_max);
    rep.set("mpki_err_abs", mpki_err_sum / n);
    std::printf("# accuracy vs SMARTS over %zu cells\n", cells);
}

bool
Daemon::start(const Options &opt, const std::vector<std::string> &args,
              const std::string &socket_path, const std::string &log)
{
    std::vector<std::string> argv{opt.batchService()};
    argv.insert(argv.end(), args.begin(), args.end());
    pid = spawnDetached(argv, log);
    socket = socket_path;
    if (socket.empty())
        return true;
    const double deadline = now() + 20.0;
    while (now() < deadline) {
        if (delorean::service::ServiceClient::ping(socket))
            return true;
        sleepFor(0.0005);
    }
    std::fprintf(stderr, "perfbench: %s did not come up\n",
                 socket.c_str());
    return false;
}

ExitInfo
Daemon::stop()
{
    if (pid < 0)
        return {};
    bool asked = false;
    if (!socket.empty()) {
        try {
            delorean::service::ServiceClient(socket).shutdown();
            asked = true;
        } catch (const std::exception &) {
        }
    }
    if (!asked)
        ::kill(pid, SIGTERM);
    const ExitInfo info = reap(pid, 30.0);
    pid = -1;
    return info;
}

void
Tracer::begin(const std::string &name)
{
    stack_.push_back({name, now()});
}

void
Tracer::end()
{
    const Open top = stack_.back();
    stack_.pop_back();
    const double dur = now() - top.start;
    Totals &t = totals_[top.name];
    t.self_s += dur - top.child_s;
    t.total_s += dur;
    if (!stack_.empty())
        stack_.back().child_s += dur;
}

double
Tracer::totalMs(const std::string &name) const
{
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : 1e3 * it->second.total_s;
}

double
Tracer::allSelfMs() const
{
    double s = 0.0;
    for (const auto &kv : totals_)
        s += kv.second.self_s;
    return 1e3 * s;
}

} // namespace perfbench
