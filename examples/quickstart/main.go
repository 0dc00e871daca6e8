// Quickstart: build a three-host StopWatch cloud, deploy a triplicated
// file-serving guest VM, download a file through the ingress/egress
// gateways, and verify that the three replicas stayed in virtual-time
// lockstep (identical output digests).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"stopwatch"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the cloud, serves one download and writes what happened to w.
func run(w io.Writer) error {
	// A cloud of three machines under the StopWatch VMM: each host has its
	// own clock offset/drift; guests see only virtual time.
	cfg := stopwatch.DefaultClusterConfig()
	cfg.Seed = 42
	cloud, err := stopwatch.NewCluster(cfg)
	if err != nil {
		return err
	}

	// Deploy one guest, triplicated across hosts {0,1,2}. The factory runs
	// once per replica: replicas must not share mutable state.
	web, err := cloud.Deploy("web", []int{0, 1, 2}, func() stopwatch.App {
		fs, err := stopwatch.NewFileServer(stopwatch.DefaultFileServerConfig())
		if err != nil {
			panic(err) // the default configuration is valid
		}
		return fs
	})
	if err != nil {
		return err
	}

	// An external client (the paper's laptop on the campus WLAN).
	client, err := cloud.NewClient("laptop")
	if err != nil {
		return err
	}

	cloud.Start()

	// Download a 100KB file over the TCP-like transport. Every inbound
	// packet (SYN, ACKs, the request) is replicated by the ingress to all
	// three replicas and delivered at the median proposed virtual time;
	// every outbound packet leaves when its second copy reaches the egress.
	dl := stopwatch.NewDownloader(client)
	var latencyMS float64
	var fetchErr error
	cloud.Loop().At(stopwatch.Millis(20), "fetch", func() {
		fetchErr = dl.Fetch(stopwatch.GuestAddr("web"), stopwatch.ModeTCP, 100<<10,
			func(lat stopwatch.Time) { latencyMS = lat.Milliseconds() })
	})
	if err := cloud.Run(stopwatch.Seconds(30)); err != nil {
		return err
	}
	if fetchErr != nil {
		return fetchErr
	}

	fmt.Fprintf(w, "download latency: %.2f ms\n", latencyMS)
	fmt.Fprintf(w, "ingress replicated %d inbound packets to 3 hosts\n", cloud.Ingress().Replicated())
	fmt.Fprintf(w, "egress forwarded %d output packets (median copies)\n", cloud.Egress().Forwarded())

	// The defense's foundation: all three replicas executed
	// deterministically and emitted byte-identical output streams.
	if err := web.CheckLockstep(); err != nil {
		return fmt.Errorf("replicas diverged: %w", err)
	}
	fmt.Fprintln(w, "replica lockstep: ok — identical output digests across all 3 replicas")
	fmt.Fprintf(w, "synchrony violations (divergences): %d\n", web.Divergences())
	for _, r := range web.Replicas() {
		s := r.Runtime().VM().Stats()
		fmt.Fprintf(w, "replica %d on %-6s: %4d net interrupts, %2d disk interrupts, digest %016x\n",
			r.Slot(), r.HostName(), s.NetInterrupts, s.DiskInterrupts, r.Runtime().VM().OutputDigest())
	}
	return nil
}
