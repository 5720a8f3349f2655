package eventsim

import (
	"runtime"
	"testing"
	"unsafe"

	"symbiosched/internal/perfdb"
	"symbiosched/internal/sched"
)

// TestServerHotLines pins the Server layout a farm event is cheap on. A
// server is five whole 64-byte cache lines, so every server of a fleet
// slab starts on a line boundary; what a dispatch probe reads (up flag,
// rate flag, K, queue length, running entry, table) sits in the first
// line; and every field one FCFS farm event reads — the probe's, the
// queue, the clock, the cached completion time, the integrals, the
// dispatch count and the inline slots — sits in the first four lines,
// ahead of every field such an event does not read. Four 24-byte slots,
// three 16-byte integrals and a queue header already take 168 bytes, so
// two lines cannot hold them; what the layout buys is that an event
// touches a few adjacent lines of one server, and a job only when it
// enters or leaves a context.
func TestServerHotLines(t *testing.T) {
	var sv Server
	const line = 64
	if size := unsafe.Sizeof(sv); size%line != 0 || size > 5*line {
		t.Fatalf("Server is %d bytes, want whole cache lines, at most five", size)
	}
	end := func(off, size uintptr) uintptr { return off + size }
	probe := map[string]uintptr{
		"failed":     end(unsafe.Offsetof(sv.failed), unsafe.Sizeof(sv.failed)),
		"tableRates": end(unsafe.Offsetof(sv.tableRates), unsafe.Sizeof(sv.tableRates)),
		"hooks":      end(unsafe.Offsetof(sv.hooks), unsafe.Sizeof(sv.hooks)),
		"k":          end(unsafe.Offsetof(sv.k), unsafe.Sizeof(sv.k)),
		"jobs":       end(unsafe.Offsetof(sv.jobs), unsafe.Sizeof(sv.jobs)),
		"entry":      end(unsafe.Offsetof(sv.entry), unsafe.Sizeof(sv.entry)),
		"table":      end(unsafe.Offsetof(sv.table), unsafe.Sizeof(sv.table)),
	}
	for name, e := range probe {
		if e > line {
			t.Errorf("dispatch-probe field %s ends at byte %d, past the first line", name, e)
		}
	}
	event := map[string]uintptr{
		"mode":       end(unsafe.Offsetof(sv.mode), unsafe.Sizeof(sv.mode)),
		"writeBack":  end(unsafe.Offsetof(sv.writeBack), unsafe.Sizeof(sv.writeBack)),
		"nslot":      end(unsafe.Offsetof(sv.nslot), unsafe.Sizeof(sv.nslot)),
		"clock":      end(unsafe.Offsetof(sv.clock), unsafe.Sizeof(sv.clock)),
		"ttc":        end(unsafe.Offsetof(sv.ttc), unsafe.Sizeof(sv.ttc)),
		"busy":       end(unsafe.Offsetof(sv.busy), unsafe.Sizeof(sv.busy)),
		"work":       end(unsafe.Offsetof(sv.work), unsafe.Sizeof(sv.work)),
		"empty":      end(unsafe.Offsetof(sv.empty), unsafe.Sizeof(sv.empty)),
		"dispatched": end(unsafe.Offsetof(sv.dispatched), unsafe.Sizeof(sv.dispatched)),
		"inline":     end(unsafe.Offsetof(sv.inline), unsafe.Sizeof(sv.inline)),
	}
	for name, e := range probe {
		event[name] = e
	}
	last := uintptr(0)
	for name, e := range event {
		if e > 4*line {
			t.Errorf("event field %s ends at byte %d, past the first four lines", name, e)
		}
		last = max(last, e)
	}
	cold := map[string]uintptr{
		"met":      unsafe.Offsetof(sv.met),
		"q":        unsafe.Offsetof(sv.q),
		"sched":    unsafe.Offsetof(sv.sched),
		"schedObs": unsafe.Offsetof(sv.schedObs),
		"obs":      unsafe.Offsetof(sv.obs),
		"wide":     unsafe.Offsetof(sv.wide),
		"learn":    unsafe.Offsetof(sv.learn),
		"down":     unsafe.Offsetof(sv.down),
	}
	for name, off := range cold {
		if off < last {
			t.Errorf("field %s, which an FCFS farm event does not read, starts at byte %d, before the event fields end at %d", name, off, last)
		}
	}
}

// TestFleetBytesPerServer pins what a K = 4 FCFS server costs the fleet
// a farm builds: the bytes NewServers and NewGroup allocate over 4,096
// servers (the server slab, the queue slab and the event heap), per
// server. The schedulers are the caller's and not counted.
func TestFleetBytesPerServer(t *testing.T) {
	const n = 4096
	tb := table(t)
	if tb.K() != 4 {
		t.Fatalf("table has K = %d, want 4", tb.K())
	}
	tables := make([]*perfdb.Table, n)
	scheds := make([]sched.Scheduler, n)
	for i := range tables {
		tables[i], scheds[i] = tb, &sched.FCFS{}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGroup(NewServers(tables, scheds))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	perServer := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.2f bytes per server", perServer)
	// 320 (server) + 64 (queue share) + 20 (heap node and position),
	// plus the group's and the heap's own headers spread over the fleet.
	const want = 404.1
	if perServer > want {
		t.Fatalf("a K = 4 FCFS server costs %.2f bytes, want at most %v", perServer, want)
	}
}
