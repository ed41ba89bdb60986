package main

import (
	"fmt"
	"hash/fnv"
	"math"
)

// opKind says what one generated operation asks of the cluster.
type opKind uint8

const (
	opUpdate    opKind = iota // UPDATE over the text protocol
	opReadASAP                // GET /read/stock?key=K, no token
	opReadFresh               // GET /read/stock?key=K&token=T&wait_ms=1000
)

// op is one generated operation. key indexes the seeded catalog
// (product-%04d); delta is meaningful for updates only.
type op struct {
	kind  opKind
	key   int
	delta int64
}

func keyName(i int) string { return fmt.Sprintf("product-%04d", i) }

// workload fixes everything about one traffic mix except the seed. The
// names are permanent: later issues cite them.
type workload struct {
	name string
	why  string
	// tmpfs puts the data dirs on /dev/shm, where a flush is free.
	tmpfs bool
	// keys, initial and nonRegular become -seed-items, -seed-initial and
	// -seed-nonregular on every node.
	keys       int
	initial    int64
	nonRegular float64
	// partitions > 0 adds -partitions/-rf.
	partitions, rf int
	// admin starts the nodes with -admin even in the untraced pass.
	admin bool
	// rate is the offered load per connection in the paced phase, ops/s.
	rate float64
	// siteA and siteB are the sites streams A and B talk to. Stream B of
	// a read workload goes to whichever admin port hosts the key.
	siteA, siteB int
	// reads marks stream B as an HTTP read stream.
	reads bool
	// funded, when set, says how many of stream A's ops must have been
	// acknowledged before stream B's op i may be sent in the closed loop,
	// where the two connections run at their own speeds.
	funded func(i int) int
	// streams returns the two seeded generators. Each call of a
	// generator yields the stream's next operation.
	streams func(seed uint64) (a, b func() op)
}

const (
	posKeys    = 2000
	posInitial = 1_000_000 // ample: no update ever leaves its local AV

	scmKeys       = 200
	scmNonRegular = 20 // product-0000..0019, 10 % of the catalog
	// scmInitial is the tuned tight stock: with a third of it as each
	// site's AV the retailer runs dry every few decrements and has to
	// fetch what the maker produced. See README "scm-mixed constants".
	scmInitial = 24
	// scmLagGroups is how far (in groups of five ops) the retailer's
	// decrements trail the maker's matching increments: 24 groups are one
	// second at 120 ops/s, so an increment is acknowledged long before
	// the decrement it funds is due.
	scmLagGroups = 24
	// scmPreludeCap bounds what the retailer's first scmLagGroups groups,
	// which nothing has funded yet, may take from one key's initial stock.
	scmPreludeCap = 8

	readmixKeys  = 4000
	readmixTheta = 0.99
)

var workloads = []workload{
	{
		name: "pos-durable",
		why:  "retail fast path on the real disk: every op is delay-local, the two sequential fsyncs do nearly all the work",
		keys: posKeys, initial: posInitial, rate: 300, siteA: 1, siteB: 2,
		streams: posStreams,
	},
	{
		name: "pos-cpu",
		why:  "the same op stream on tmpfs where a flush is free: parse, AV, locks, apply, WAL encode, reply and replication do all the work",
		keys: posKeys, initial: posInitial, rate: 500, siteA: 1, siteB: 2, tmpfs: true,
		streams: posStreams,
	},
	{
		name: "scm-mixed",
		why:  "the paper's heterogeneous case: tight stock so AV circulates, 10 % non-regular updates through 2PC; uses core gather, twopc, tcpnet, wire",
		keys: scmKeys, initial: scmInitial, nonRegular: float64(scmNonRegular) / scmKeys,
		rate: 120, siteA: 0, siteB: 1,
		streams: scmStreams, funded: scmFunded,
	},
	{
		name: "sharded-readmix",
		why:  "16 partitions at RF 2 under Zipf keys: close to half of the updates cross a route hop while HTTP reads run beside the writes",
		keys: readmixKeys, initial: posInitial, partitions: 16, rf: 2, admin: true,
		rate: 300, siteA: 1, reads: true,
		streams: readmixStreams,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rng is splitmix64: tiny, and its sequence is fixed by this file, not
// by a library version, so pinned generator hashes stay valid.
type rng struct{ s uint64 }

// newRNG derives an independent generator for one stream of one seed.
func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 + stream*0xd1b54a32d192ed03}
	r.u64()
	return r
}

func (r *rng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

// small returns a magnitude in [1,5], the retail δ of every workload.
func (r *rng) small() int64 { return int64(r.intn(5)) + 1 }

// posStreams: uniform keys, δ ∈ [−5,−1], one stream per retailer site.
func posStreams(seed uint64) (a, b func() op) {
	mk := func(stream uint64) func() op {
		r := newRNG(seed, stream)
		return func() op {
			return op{kind: opUpdate, key: r.intn(posKeys), delta: -r.small()}
		}
	}
	return mk(1), mk(2)
}

// scmGroup is five retailer decrements and the four maker increments
// that fund them, plus the maker's one non-regular update.
type scmGroup struct {
	keys [4]int
	d    [5]int64
}

func scmMaster(seed uint64) func() scmGroup {
	r := newRNG(seed, 3)
	return func() scmGroup {
		var g scmGroup
		for i := range g.keys {
			g.keys[i] = scmNonRegular + r.intn(scmKeys-scmNonRegular)
		}
		for i := range g.d {
			g.d[i] = r.small()
		}
		return g
	}
}

// scmStreams: stream A (maker, site 0) issues increments and every
// non-regular update; stream B (retailer, site 1) issues the matching
// decrements scmLagGroups groups later, so stock per key stays within a
// few units of its tight initial value and no decrement can run short
// of total AV unless the maker stalls for a second.
func scmStreams(seed uint64) (a, b func() op) {
	masterA := scmMaster(seed)
	nr := newRNG(seed, 4)
	// A non-regular key alternates +d, −d so its stock never leaves
	// [initial, initial+5] whatever the order of keys.
	var pending [scmNonRegular]int64
	var ga scmGroup
	ia := 0
	a = func() op {
		pos := ia % 5
		ia++
		if pos == 0 {
			ga = masterA()
		}
		switch pos {
		case 0:
			return op{kind: opUpdate, key: ga.keys[0], delta: ga.d[0] + ga.d[4]}
		case 1:
			return op{kind: opUpdate, key: ga.keys[1], delta: ga.d[1]}
		case 2:
			k := nr.intn(scmNonRegular)
			d := nr.small()
			if pending[k] != 0 {
				d, pending[k] = -pending[k], 0
			} else {
				pending[k] = d
			}
			return op{kind: opUpdate, key: k, delta: d}
		default:
			return op{kind: opUpdate, key: ga.keys[pos-1], delta: ga.d[pos-1]}
		}
	}

	masterB := scmMaster(seed)
	prelude := newRNG(seed, 5)
	taken := make([]int64, scmKeys)
	var gb scmGroup
	ib := 0
	b = func() op {
		i := ib
		ib++
		if i < scmLagGroups*5 {
			k := scmNonRegular + prelude.intn(scmKeys-scmNonRegular)
			d := prelude.small()
			for taken[k]+d > scmPreludeCap {
				if k++; k == scmKeys {
					k = scmNonRegular
				}
			}
			taken[k] += d
			return op{kind: opUpdate, key: k, delta: -d}
		}
		pos := i % 5
		if pos == 0 {
			gb = masterB()
		}
		if pos == 4 {
			return op{kind: opUpdate, key: gb.keys[0], delta: -gb.d[4]}
		}
		return op{kind: opUpdate, key: gb.keys[pos], delta: -gb.d[pos]}
	}
	return a, b
}

// scmFunded reports how many of stream A's ops must be acknowledged
// before stream B's op i is funded. The paced phase never consults it:
// there the lag does the job.
func scmFunded(i int) int {
	if i < scmLagGroups*5 {
		return 0
	}
	return (i/5 - scmLagGroups + 1) * 5
}

// zipf is the bounded Zipfian generator of YCSB (Gray et al.), with
// ranks scattered over the key space so hot keys spread over partitions.
type zipf struct {
	n                 int
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(n int) float64 {
		var s float64
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, zetan: zeta(n), half: math.Pow(0.5, theta)}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) key(u float64) int {
	var rank int
	switch uz := u * z.zetan; {
	case uz < 1:
		rank = 0
	case uz < 1+z.half:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	// 1229 is prime and shares no factor with any key count used here.
	return rank * 1229 % z.n
}

// readmixStreams: stream W sends Zipf-keyed decrements to site 1;
// stream R alternates read-ASAP and read-fresh over its own Zipf keys.
// A fresh read uses the key of W's latest acknowledgement, which only
// the run knows, so its generated key is ignored.
func readmixStreams(seed uint64) (w, r func() op) {
	z := newZipf(readmixKeys, readmixTheta)
	rw, rr := newRNG(seed, 6), newRNG(seed, 7)
	w = func() op {
		return op{kind: opUpdate, key: z.key(rw.float()), delta: -rw.small()}
	}
	i := 0
	r = func() op {
		o := op{kind: opReadASAP, key: z.key(rr.float())}
		if i%2 == 1 {
			o.kind = opReadFresh
		}
		i++
		return o
	}
	return w, r
}

// streamHash digests the first n ops of both streams of w under seed:
// what the generator determinism test pins, and what the run header
// prints so two runs can be seen to have had the same inputs.
func streamHash(w workload, seed uint64, n int) uint64 {
	h := fnv.New64a()
	a, b := w.streams(seed)
	for i := 0; i < n; i++ {
		for _, o := range [2]op{a(), b()} {
			fmt.Fprintf(h, "%d %d %d\n", o.kind, o.key, o.delta)
		}
	}
	return h.Sum64()
}
