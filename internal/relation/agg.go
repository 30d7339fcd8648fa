package relation

import "fmt"

// MinBy groups the relation by the named key attributes and keeps, per
// group, the tuple minimising the named numeric attribute. Ties keep
// the first tuple encountered (stable for a fixed input order).
//
// This is the aggregation the shortest-path fixpoint needs: among all
// derived paths sharing endpoints, only the cheapest survives to the
// next iteration, and the final assembly of the disconnection set
// approach "selects the shortest one among them" (§2.1).
func (r *Relation) MinBy(valueAttr string, keyAttrs ...string) (*Relation, error) {
	vi := r.schema.IndexOf(valueAttr)
	if vi < 0 {
		return nil, fmt.Errorf("relation: minby: unknown attribute %q", valueAttr)
	}
	if len(keyAttrs) == 0 {
		return nil, fmt.Errorf("relation: minby: need at least one key attribute")
	}
	kpos := make([]int, len(keyAttrs))
	for i, a := range keyAttrs {
		p := r.schema.IndexOf(a)
		if p < 0 {
			return nil, fmt.Errorf("relation: minby: unknown key attribute %q", a)
		}
		kpos[i] = p
	}
	type slot struct {
		order int
		tuple Tuple
		val   float64
	}
	best := make(map[string]*slot, len(r.tuples))
	var order []string
	var buf []byte
	for i, t := range r.tuples {
		v, err := numeric(t[vi])
		if err != nil {
			return nil, fmt.Errorf("relation: minby: tuple %d: %v", i, err)
		}
		buf = appendKeyAt(buf[:0], t, kpos)
		if s, ok := best[string(buf)]; !ok {
			k := string(buf)
			best[k] = &slot{order: len(order), tuple: t, val: v}
			order = append(order, k)
		} else if v < s.val {
			s.tuple, s.val = t, v
		}
	}
	out := &Relation{schema: r.Schema()}
	for _, k := range order {
		out.tuples = append(out.tuples, best[k].tuple)
	}
	return out, nil
}

// MinValue returns the minimum of the named numeric attribute over all
// tuples, and false if the relation is empty.
func (r *Relation) MinValue(attr string) (float64, bool, error) {
	i := r.schema.IndexOf(attr)
	if i < 0 {
		return 0, false, fmt.Errorf("relation: minvalue: unknown attribute %q", attr)
	}
	found := false
	min := 0.0
	for _, t := range r.tuples {
		v, err := numeric(t[i])
		if err != nil {
			return 0, false, err
		}
		if !found || v < min {
			min, found = v, true
		}
	}
	return min, found, nil
}

// numeric converts an int64 or float64 value to float64.
func numeric(v Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	}
	return 0, fmt.Errorf("value %v (%T) is not numeric", v, v)
}
