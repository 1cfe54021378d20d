package main

import (
	"context"
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// printEnv stamps the output with what the numbers depend on. Numbers
// taken on different machines are never compared.
func printEnv(c config, ins []input) {
	fmt.Fprintf(c.out, "env: workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s scratch_fs=%s commit=%s\n",
		c.wl.name, c.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(c.dir), c.commit)
	fmt.Fprintf(c.out, "env: inputs=%d x %d B (%d records of %d B, %s) procs=%d mem_per_proc=%d disks=FileDisk async=on checkpoint=%v seconds=%g\n",
		len(ins), c.wl.inputBytes, c.wl.records(), recSize, c.wl.generator(c.seed, 0).Name(), procs, c.wl.memPerProc, c.wl.checkpoint, c.seconds)
	for i, in := range ins {
		fmt.Fprintf(c.out, "input %d: %s\n", i, in)
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// gitCommit names the commit being measured: what git reports for the
// working directory, or "unknown" (a plain source checkout has no history).
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
