package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// Host attribution: a CPU profile taken over the traced measured phases
// is decoded here (a minimal reader of the profile.proto wire format,
// since the standard library only writes it) and each sample is charged
// to one layer bucket.

// Layer buckets, in the order they are reported.
var hostBuckets = []string{"sim", "mem", "gc", "thrift", "trdma", "engine", "verbs", "simnet", "lmdb", "cluster", "bench", "other"}

// handoffFrames are runtime functions that run when the DES kernel parks
// one simulated process and resumes the next through channels: they are
// the kernel's cost, not the caller's. The scheduler frames among them
// run on the system stack, where no caller from this module is visible.
var handoffFrames = map[string]bool{
	"runtime.selectgo": true, "runtime.chanrecv": true, "runtime.chanrecv1": true,
	"runtime.chanrecv2": true, "runtime.chansend": true, "runtime.chansend1": true,
	"runtime.lock2": true, "runtime.unlock2": true, "runtime.casgstatus": true,
	"runtime.send": true, "runtime.recv": true, "runtime.gopark": true,
	"runtime.goready": true, "runtime.ready": true, "runtime.park_m": true,
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.execute": true,
	"runtime.mcall": true, "runtime.gogo": true, "runtime.runqget": true,
	"runtime.runqput": true, "runtime.futex": true, "runtime.futexsleep": true,
	"runtime.futexwakeup": true, "runtime.notesleep": true, "runtime.notewakeup": true,
	"runtime.wakep": true, "runtime.startm": true, "runtime.stopm": true,
	"runtime.sellock": true, "runtime.selunlock": true, "runtime.acquireSudog": true,
	"runtime.releaseSudog": true, "runtime.(*waitq).dequeue": true, "runtime.procyield": true,
	"runtime.osyield": true, "runtime.usleep": true,
}

// memPrefixes name the copy, clear and allocation paths.
var memPrefixes = []string{
	"runtime.memmove", "runtime.memclr", "runtime.mallocgc", "runtime.newobject",
	"runtime.makeslice", "runtime.growslice", "runtime.nextFreeFast", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*mheap).alloc", "runtime.heapSetType",
	"runtime.(*mspan).heapBits", "runtime.rawbyteslice", "runtime.slicebytetostring",
	"runtime.concatstring", "runtime.bulkBarrierPreWrite",
}

// gcRoots mark a stack as garbage-collector work wherever its leaf is.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.GC"}

// pkgBuckets maps a function's package to a layer; "main." is this
// benchmark (input generation, tracing, checks).
var pkgBuckets = []struct{ prefix, bucket string }{
	{"hatrpc/internal/sim.", "sim"},
	{"hatrpc/internal/trdma.", "trdma"},
	{"hatrpc/internal/hints.", "trdma"},
	{"hatrpc/internal/thrift.", "thrift"},
	{"hatrpc/internal/atb/gen.", "thrift"},
	{"hatrpc/internal/engine.", "engine"},
	{"hatrpc/internal/verbs.", "verbs"},
	{"hatrpc/internal/simnet.", "simnet"},
	{"hatrpc/internal/lmdb.", "lmdb"},
	{"hatrpc/internal/hatkv.", "lmdb"},
	{"hatrpc/internal/cluster.", "cluster"},
	{"main.", "bench"},
}

// bucketOf charges one sample, given its stack leaf first: GC work by
// any frame, then the leaf by copy/alloc or kernel handoff, then the
// nearest frame of a known package, so that runtime and standard-library
// helpers count for the layer that called them.
func bucketOf(stack []string) string {
	for _, f := range stack {
		for _, r := range gcRoots {
			if f == r {
				return "gc"
			}
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	for _, p := range memPrefixes {
		if strings.HasPrefix(leaf, p) {
			return "mem"
		}
	}
	if handoffFrames[leaf] {
		return "sim"
	}
	for _, f := range stack {
		for _, pb := range pkgBuckets {
			if strings.HasPrefix(f, pb.prefix) {
				return pb.bucket
			}
		}
	}
	return "other"
}

// addProfile decodes one gzipped CPU profile and adds its sample counts
// per bucket into into.
func addProfile(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFn   = map[uint64][]uint64{} // location → function ids, innermost first
		fnName  = map[uint64]int64{}    // function → string index
		strtab  []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					if vals := appendVarints(nil, wt, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, l := range s.locs {
			for _, f := range locFn[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strtab) {
					stack = append(stack, strtab[i])
				}
			}
		}
		into[bucketOf(stack)] += s.count
	}
	return nil
}

var errProto = errors.New("perfbench: malformed profile")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints reads a repeated varint field in either its packed or
// unpacked encoding.
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
