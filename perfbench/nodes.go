package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// node is one rpcd process started by the benchmark.
type node struct {
	url  string
	dir  string // its -model-dir
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done
}

// group is a set of rpcd nodes started together: one node alone, or a
// serving group joined with -peers.
type group struct {
	nodes  []*node
	client *http.Client // for control requests (readiness, metrics, rules)
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them. A port could in principle be taken again before rpcd binds it;
// startGroup reports that as a start failure.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// startGroup launches n rpcd processes with model directories under work,
// joined into one serving group when n > 1, and waits until every node
// reports healthy with all its peers up. The caller must stop the group.
func startGroup(ctx context.Context, rpcd, work string, n int) (*group, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	urls := make([]string, n)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	g := &group{client: &http.Client{Timeout: 10 * time.Second}}
	for i := range urls {
		dir := filepath.Join(work, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			g.stop()
			return nil, err
		}
		logf, err := os.Create(dir + ".log")
		if err != nil {
			g.stop()
			return nil, err
		}
		args := []string{"-addr", strings.TrimPrefix(urls[i], "http://"), "-model-dir", dir}
		if n > 1 {
			var peers []string
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			args = append(args, "-advertise", urls[i], "-peers", strings.Join(peers, ","))
		}
		cmd := exec.Command(rpcd, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The node must not outlive the benchmark, whatever ends it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			g.stop()
			return nil, fmt.Errorf("starting rpcd: %w", err)
		}
		nd := &node{url: urls[i], dir: dir, cmd: cmd, log: logf, done: make(chan struct{})}
		go func() {
			nd.err = cmd.Wait()
			close(nd.done)
		}()
		g.nodes = append(g.nodes, nd)
	}
	if err := g.waitReady(ctx); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

// health is the subset of GET /healthz the readiness check reads.
type health struct {
	Status  string `json:"status"`
	PeersUp int    `json:"peers_up"`
}

// waitReady polls /healthz on every node until each answers 200 with all
// of its peers routable.
func (g *group) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for _, nd := range g.nodes {
		for {
			var h health
			err := g.getJSON(ctx, nd.url+"/healthz", &h)
			if err == nil && h.Status == "ok" && h.PeersUp == len(g.nodes)-1 {
				break
			}
			select {
			case <-nd.done:
				return fmt.Errorf("rpcd %s exited during start: %v\n%s", nd.url, nd.err, tail(nd.dir+".log"))
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("rpcd %s not ready: %v", nd.url, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// stop terminates every node gracefully (SIGTERM, so the registry syncs)
// and waits for each to exit, killing any that outlast the grace period.
func (g *group) stop() error {
	var errs []error
	for _, nd := range g.nodes {
		nd.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, nd := range g.nodes {
		select {
		case <-nd.done:
		case <-time.After(15 * time.Second):
			nd.cmd.Process.Kill()
			<-nd.done
			errs = append(errs, fmt.Errorf("rpcd %s ignored SIGTERM", nd.url))
		}
		nd.log.Close()
	}
	g.client.CloseIdleConnections()
	g.nodes = nil
	return errors.Join(errs...)
}

// getJSON fetches url and decodes a 200 answer into v.
func (g *group) getJSON(ctx context.Context, url string, v any) error {
	b, status, err := g.get(ctx, url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, status)
	}
	return json.Unmarshal(b, v)
}

// get fetches url and returns its body and status.
func (g *group) get(ctx context.Context, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// post sends body to url and returns the response body and status.
func (g *group) post(ctx context.Context, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// nodeIndex maps a node URL (as peers advertise it in X-RPC-Served-By) to
// its index, or -1.
func (g *group) nodeIndex(url string) int {
	for i, nd := range g.nodes {
		if nd.url == url {
			return i
		}
	}
	return -1
}

// peakRSSMB sums VmHWM (the resident-set high-water mark) over the nodes.
func (g *group) peakRSSMB() (float64, error) {
	total := 0.0
	for _, nd := range g.nodes {
		kb, err := procStatusKB(nd.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

// clockTicks is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds sums the user and system CPU time the nodes have used so
// far. Unlike wall time it does not count the time a vCPU spends
// descheduled by the host.
func (g *group) cpuSeconds() (float64, error) {
	total := 0.0
	for _, nd := range g.nodes {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", nd.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name: state is field 3,
		// utime and stime are fields 14 and 15.
		i := bytes.LastIndexByte(b, ')')
		f := strings.Fields(string(b[i+1:]))
		if i < 0 || len(f) < 13 {
			return 0, fmt.Errorf("/proc/%d/stat: unexpected format", nd.cmd.Process.Pid)
		}
		for _, v := range f[11:13] {
			t, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, err
			}
			total += t / clockTicks
		}
	}
	return total, nil
}

// procStatusKB reads one "<field>: <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if ok && name == field {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// promSample is one parsed Prometheus text-format sample set: series name
// with its label block (exactly as exposed) → value.
type promSample map[string]float64

// scrape fetches /metrics from every node.
func (g *group) scrape(ctx context.Context) ([]promSample, error) {
	out := make([]promSample, len(g.nodes))
	for i, nd := range g.nodes {
		b, status, err := g.get(ctx, nd.url+"/metrics")
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET %s/metrics: status %d", nd.url, status)
		}
		out[i] = parseProm(b)
	}
	return out, nil
}

// parseProm parses the Prometheus text format rpcd writes.
func parseProm(b []byte) promSample {
	s := promSample{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	return s
}

// sum adds every series whose name (the part before any label block) is
// name.
func (s promSample) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// tail returns the last lines of a log file, for start-failure reports.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return strings.Join(lines, "\n")
}
