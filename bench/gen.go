package main

import (
	"encoding/binary"
	"hash/crc32"
	"strconv"
)

// Operation kinds of the kv.* request streams.
const (
	opGet = iota
	opSet
	opIncr
	opTransfer
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "set", "incr", "transfer"}

// op is one generated request. a and b index the key space of the kind: keys
// for GET/SET, counters for INCR, accounts for TRANSFER (a pays b). arg is the
// SET value's version, the INCR delta or the TRANSFER amount.
type op struct {
	kind uint8
	a, b uint32
	arg  uint64
}

// Large enough that no account runs dry under the zipf draw, so that every
// TRANSFER takes the same path.
const initialBalance = 1_000_000

// kvSpec is one kv.* workload. The mix is in percent and sums to 100.
type kvSpec struct {
	name                     string
	get, set, incr, transfer int
	keys, valueSize          int
	counters, accounts       int
	theta                    float64 // zipf exponent; 0 draws uniformly
	durable                  bool
	rate                     int     // open-loop requests per second over all connections
	p99LimitUs               float64 // the ladder's latency limit
	traceOps                 int     // operations in each pass of the traced run
}

// userBytes is the size of the preloaded data as a client sees it.
func (s *kvSpec) userBytes() int {
	return s.keys*(keyLen+s.valueSize) + (s.counters+s.accounts)*(keyLen+4)
}

// gen produces one connection's request stream. Everything it emits is a
// function of the seed and the connection index alone.
type gen struct {
	spec                  *kvSpec
	r                     *rng
	keyS, counterS, acctS *sampler
	version               uint64
}

func newGen(spec *kvSpec, seed uint64, conn int) *gen {
	g := &gen{
		spec: spec,
		r:    newRNG(seed).fork(uint64(conn)),
		keyS: newSampler(spec.keys, spec.theta),
		// Versions of different connections never collide, so a value names
		// the request that wrote it.
		version: uint64(conn+1) << 48,
	}
	if spec.counters > 0 {
		g.counterS = newSampler(spec.counters, spec.theta)
	}
	if spec.accounts > 0 {
		g.acctS = newSampler(spec.accounts, spec.theta)
	}
	return g
}

// newGens returns one generator per connection.
func newGens(spec *kvSpec, seed uint64) []*gen {
	gens := make([]*gen, conns)
	for i := range gens {
		gens[i] = newGen(spec, seed, i)
	}
	return gens
}

func (g *gen) next() op {
	s := g.spec
	p := g.r.intn(100)
	switch {
	case p < s.get:
		return op{kind: opGet, a: uint32(g.keyS.draw(g.r))}
	case p < s.get+s.set:
		g.version++
		return op{kind: opSet, a: uint32(g.keyS.draw(g.r)), arg: g.version}
	case p < s.get+s.set+s.incr:
		return op{kind: opIncr, a: uint32(g.counterS.draw(g.r)), arg: uint64(1 + g.r.intn(9))}
	default:
		a := g.acctS.draw(g.r)
		b := g.acctS.draw(g.r)
		if b == a {
			b = (a + 1) % s.accounts
		}
		return op{kind: opTransfer, a: uint32(a), b: uint32(b), arg: uint64(1 + g.r.intn(5))}
	}
}

// Keys are a class letter and the item's index in seven digits.
const keyLen = 8

func appendKey(dst []byte, class byte, id uint32) []byte {
	var d [keyLen]byte
	d[0] = class
	for i := keyLen - 1; i >= 1; i-- {
		d[i] = byte('0' + id%10)
		id /= 10
	}
	return append(dst, d[:]...)
}

func keyOf(class byte, id uint32) []byte { return appendKey(nil, class, id) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Values carry the id of their key, the version that wrote them, filler
// derived from both, and a CRC of all of it, so that a value stored under the
// wrong key, a torn value and a value nobody wrote are each detected when it
// is read back.
const valueOverhead = 8 + 8 + 4

func appendValue(dst []byte, id uint32, version uint64, size int) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
	dst = binary.LittleEndian.AppendUint64(dst, version)
	fill := rng{s: uint64(id)<<32 ^ version}
	for len(dst)-start < size-4 {
		w := fill.next()
		for i := 0; i < 8 && len(dst)-start < size-4; i++ {
			dst = append(dst, byte(w>>(8*i)))
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// checkValue reports whether v is a well-formed value of key id.
func checkValue(v []byte, id uint32, size int) bool {
	if len(v) != size || size < valueOverhead {
		return false
	}
	if binary.LittleEndian.Uint64(v) != uint64(id) {
		return false
	}
	return binary.LittleEndian.Uint32(v[size-4:]) == crc32.Checksum(v[:size-4], castagnoli)
}

// appendRequest appends o as one request frame of the stmkvd protocol,
// "<size> <body>\n" with blobs spelled "$<len>:<bytes>". The framing is
// written out here and not taken from the repo's client, so that a change to
// that client cannot change what the benchmark sends. scratch is reused for
// the body.
func (s *kvSpec) appendRequest(dst []byte, scratch *[]byte, o op) []byte {
	b := (*scratch)[:0]
	switch o.kind {
	case opGet:
		b = append(b, "GET $8:"...)
		b = appendKey(b, 'k', o.a)
	case opSet:
		b = append(b, "SET $8:"...)
		b = appendKey(b, 'k', o.a)
		b = append(b, " $"...)
		b = strconv.AppendInt(b, int64(s.valueSize), 10)
		b = append(b, ':')
		b = appendValue(b, o.a, o.arg, s.valueSize)
	case opIncr:
		b = append(b, "INCR $8:"...)
		b = appendKey(b, 'c', o.a)
		b = append(b, ' ')
		b = strconv.AppendUint(b, o.arg, 10)
	case opTransfer:
		b = append(b, "TRANSFER $8:"...)
		b = appendKey(b, 'a', o.a)
		b = append(b, " $8:"...)
		b = appendKey(b, 'a', o.b)
		b = append(b, ' ')
		b = strconv.AppendUint(b, o.arg, 10)
	}
	*scratch = b
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, ' ')
	dst = append(dst, b...)
	return append(dst, '\n')
}
