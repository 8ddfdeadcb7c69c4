package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile of the traced run is bucketed into the simulator's
// layers. runtime/pprof writes a gzipped profile.proto; the few fields
// bucketing needs are decoded here so the benchmark depends on nothing
// outside the standard library.

// profSample is one decoded sample: its stack as function names, leaf
// first (inlined frames expanded), and its sample count.
type profSample struct {
	stack []string
	count int64
}

// decodeProfile parses a gzipped profile.proto.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		samples []struct {
			locs  []uint64
			count int64
		}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s struct {
				locs  []uint64
				count int64
			}
			first := true
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					if vals := appendPacked(nil, wire, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if n := funcs[f]; n >= 0 && int(n) < len(strs) {
					ps.stack = append(ps.stack, strs[n])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire 0) or payload (wire 2).
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Profile buckets, in report order. Every sample lands in exactly one, so
// the shares sum to 100%.
var bucketNames = []string{
	"sim.engine", "sim.handoff", "sim.fairshare", "vnet.solver",
	"mapreduce.dataplane", "mapreduce.tracker", "hdfs", "jobsvc.sched", "obs",
	"runtime.malloc", "runtime.gc", "other",
}

const repo = "vhadoop/internal/"

// runtimeBucket classifies the runtime frames that are costs of their own:
// allocation, garbage collection, and the goroutine park/wake/schedule
// path every sim.Proc hand-off goes through.
func runtimeBucket(fn string) string {
	if !strings.HasPrefix(fn, "runtime.") {
		return ""
	}
	name := fn[len("runtime."):]
	switch {
	case strings.HasPrefix(name, "mallocgc"):
		return "runtime.malloc"
	case strings.HasPrefix(name, "gc"), strings.HasPrefix(name, "scan"),
		strings.HasPrefix(name, "markroot"), strings.HasPrefix(name, "greyobject"),
		strings.HasPrefix(name, "bgsweep"), strings.HasPrefix(name, "bgscavenge"),
		strings.HasPrefix(name, "sweepone"), strings.HasPrefix(name, "(*sweepLocked)"),
		strings.HasPrefix(name, "(*gcWork)"), strings.HasPrefix(name, "wbBuf"),
		strings.HasPrefix(name, "bulkBarrier"):
		return "runtime.gc"
	}
	switch name {
	case "gopark", "goready", "ready", "park_m", "mcall", "schedule", "findRunnable",
		"chansend", "chansend1", "chanrecv", "chanrecv1", "chanrecv2", "selectgo",
		"stopm", "startm", "wakep", "notesleep", "notewakeup", "newproc", "newproc1",
		"goexit0", "gosched_m", "execute", "runqget", "runqsteal", "runqgrab":
		return "sim.handoff"
	}
	return ""
}

// repoBucket classifies a frame of the simulator's own packages; ""
// marks packages that own no bucket (workloads, datasets, core, xen,
// phys, nfs, the benchmark itself), whose time goes to the first owning
// frame rootward of them.
func repoBucket(fn string) string {
	pkg, rest, _ := strings.Cut(strings.TrimPrefix(fn, repo), ".")
	switch pkg {
	case "sim":
		if strings.HasPrefix(rest, "(*FairShare)") {
			return "sim.fairshare"
		}
		return "sim.engine"
	case "vnet":
		if strings.HasPrefix(rest, "(*Fabric)") {
			return "vnet.solver"
		}
	case "mapreduce":
		for _, dp := range []string{"sortKVs", "sortedByKey", "mergeRuns", "merge2", "reduceSorted",
			"groupAndReduce", "defaultPartition", "(*Cluster).runMap", "(*Cluster).runReduce", "(*Cluster).spillPasses"} {
			if strings.HasPrefix(rest, dp) {
				return "mapreduce.dataplane"
			}
		}
		return "mapreduce.tracker"
	case "hdfs":
		return "hdfs"
	case "jobsvc":
		return "jobsvc.sched"
	case "obs":
		return "obs"
	}
	return ""
}

// schedTick is the job service's scheduling round. Everything it calls
// (tenant ordering, job picking, the locality scores it asks the cluster
// for) is scheduler decision time.
const schedTick = repo + "jobsvc.(*Service).tickOnce"

// bucketOf attributes one stack. Walking from the leaf, a runtime cost
// frame claims the sample; otherwise a scheduling round on the stack
// does, and failing that the first frame of a layer that owns a bucket.
// Engine frames rootward of non-layer code are only the proc's goroutine
// root, so such samples count as other.
func bucketOf(stack []string) string {
	inSched := false
	for _, fn := range stack {
		if strings.HasPrefix(fn, schedTick) {
			inSched = true
			break
		}
	}
	sawUser := false
	for _, fn := range stack {
		if b := runtimeBucket(fn); b != "" {
			return b
		}
		if inSched {
			return "jobsvc.sched"
		}
		if !strings.HasPrefix(fn, repo) && !strings.HasPrefix(fn, "main.") {
			continue
		}
		b := repoBucket(fn)
		switch {
		case b == "":
			sawUser = true
		case sawUser && b == "sim.engine":
			return "other"
		default:
			return b
		}
	}
	return "other"
}

// bucketShares returns each bucket's percentage of all samples and the
// sample total.
func bucketShares(samples []profSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[bucketOf(s.stack)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, b := range bucketNames {
		if total > 0 {
			shares[b] = 100 * float64(counts[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, total
}
