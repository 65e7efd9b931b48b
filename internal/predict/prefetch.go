package predict

// StridePrefetcher is a classic per-core stride detector with confidence
// thresholding, used for the paper's §V-D prefetcher study: on each
// demand read it learns the core's stride and, once confident, proposes
// the next degree lines. The paper finds DRAM-cache prefetching
// gains little — prefetch fills interfere with demands and consume
// bandwidth — and the reproduction's study shows the same.
type StridePrefetcher struct {
	degree int
	cores  []strideState

	Issued uint64 // proposals returned to the controller
}

type strideState struct {
	last       uint64
	stride     int64
	confidence int
	valid      bool
}

// NewStridePrefetcher builds a prefetcher proposing degree lines ahead.
func NewStridePrefetcher(cores, degree int) *StridePrefetcher {
	if degree < 1 {
		degree = 1
	}
	return &StridePrefetcher{degree: degree, cores: make([]strideState, cores)}
}

// Observe trains on a demand read and returns the lines to prefetch
// (empty until the core's stride is confident).
func (p *StridePrefetcher) Observe(core int, line uint64) []uint64 {
	if core < 0 || core >= len(p.cores) {
		return nil
	}
	st := &p.cores[core]
	if !st.valid {
		st.last, st.valid = line, true
		return nil
	}
	stride := int64(line) - int64(st.last)
	st.last = line
	if stride == 0 {
		return nil
	}
	if stride == st.stride {
		if st.confidence < 4 {
			st.confidence++
		}
	} else {
		st.stride = stride
		st.confidence = 0
		return nil
	}
	if st.confidence < 2 {
		return nil
	}
	out := make([]uint64, 0, p.degree)
	next := int64(line)
	for i := 0; i < p.degree; i++ {
		next += stride
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	p.Issued += uint64(len(out))
	return out
}
