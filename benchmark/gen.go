package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// Operation kinds. A workload's schedule is drawn from the seed before
// anything runs; the program under test only ever sees the drawn inputs.
const (
	opTree     uint8 = iota // Fig. 1 transaction (no drawn input)
	opRead                  // query transaction
	opWrite                 // local replace transaction
	opAssemble              // AssembleSharded
	opUpdate                // remote update call + commit
	opKinds
)

var opNames = [opKinds]string{"tree", "read", "write", "assemble", "update"}

// genOp is one pre-drawn operation. due is the open loop's arrival time in
// nanoseconds after the window opens; closed loops leave it zero.
type genOp struct {
	kind uint8
	key  int32
	val  int32
	due  int64
}

// mixBlock returns the kinds of one block of operations in exact
// proportion, shuffled: drawing each kind independently would let the mix,
// and with it allocations per operation, wander from seed to seed.
func mixBlock(rng *rand.Rand, parts map[uint8]int) []uint8 {
	var block []uint8
	for k := uint8(0); k < opKinds; k++ {
		for i := 0; i < parts[k]; i++ {
			block = append(block, k)
		}
	}
	rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// closedSchedule draws n operations for one closed-loop client; the client
// cycles through them. key draws a key for an operation kind.
func closedSchedule(rng *rand.Rand, n int, parts map[uint8]int, key func(kind uint8) int32) []genOp {
	ops := make([]genOp, 0, n)
	for len(ops) < n {
		for _, k := range mixBlock(rng, parts) {
			ops = append(ops, genOp{kind: k, key: key(k), val: int32(rng.Intn(9000) + 1000)})
		}
	}
	return ops[:n]
}

// openSchedule draws Poisson arrivals at rate per second until horizon
// nanoseconds, with the kinds in exact proportion per block.
func openSchedule(rng *rand.Rand, rate float64, horizon int64, parts map[uint8]int, key func(kind uint8) int32) []genOp {
	var ops []genOp
	var t float64
	for {
		for _, k := range mixBlock(rng, parts) {
			t += rng.ExpFloat64() / rate * 1e9
			if int64(t) >= horizon {
				return ops
			}
			ops = append(ops, genOp{kind: k, key: key(k), val: int32(rng.Intn(9000) + 1000), due: int64(t)})
		}
	}
}

// scheduleHash identifies the drawn inputs: the same seed must give the
// same hash, a different seed a different one wherever a workload draws
// anything. It is cut to 52 bits so it survives a float64 in the report.
func scheduleHash(name string, schedules ...[]genOp) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var buf [17]byte
	for _, ops := range schedules {
		for _, o := range ops {
			buf[0] = o.kind
			binary.LittleEndian.PutUint32(buf[1:], uint32(o.key))
			binary.LittleEndian.PutUint32(buf[5:], uint32(o.val))
			binary.LittleEndian.PutUint64(buf[9:], uint64(o.due))
			h.Write(buf[:])
		}
	}
	return h.Sum64() & (1<<52 - 1)
}
