package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseEvents parses a compact lifecycle schedule for Lifecycle.Events:
//
//	drain:t=5,m=1;fail:t=7,m=0;join:t=9
//
// Events are ';'-separated; each is kind:key=value,... with keys t
// (time, finite nonnegative seconds, required) and m (machine index,
// required for drain and fail, rejected for join). The empty string is
// an empty schedule.
func ParseEvents(s string) ([]Event, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var events []Event
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, _ := strings.Cut(part, ":")
		ev := Event{Time: -1, Machine: -1}
		switch name = strings.TrimSpace(name); name {
		case "join":
			ev.Kind = MachineJoin
		case "drain":
			ev.Kind = MachineDrain
		case "fail":
			ev.Kind = MachineFail
		default:
			return nil, fmt.Errorf("cluster: event %q: unknown kind %q (want join, drain or fail)", part, name)
		}
		if spec != "" {
			for _, kv := range strings.Split(spec, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("cluster: event %q: malformed field %q (want key=value)", part, kv)
				}
				switch key {
				case "t":
					t, err := parseFinite(val)
					if err != nil || t < 0 {
						return nil, fmt.Errorf("cluster: event %q: bad time %q", part, val)
					}
					ev.Time = t
				case "m":
					m, err := strconv.Atoi(val)
					if err != nil || m < 0 {
						return nil, fmt.Errorf("cluster: event %q: bad machine %q", part, val)
					}
					ev.Machine = m
				default:
					return nil, fmt.Errorf("cluster: event %q: unknown field %q (want t or m)", part, key)
				}
			}
		}
		if ev.Time < 0 {
			return nil, fmt.Errorf("cluster: event %q: missing time (t=...)", part)
		}
		if ev.Kind == MachineJoin {
			if ev.Machine >= 0 {
				return nil, fmt.Errorf("cluster: event %q: join takes no machine (the fleet assigns the next index)", part)
			}
			ev.Machine = 0
		} else if ev.Machine < 0 {
			return nil, fmt.Errorf("cluster: event %q: missing machine (m=...)", part)
		}
		events = append(events, ev)
	}
	return events, nil
}

// ParseAutoscale parses a load-triggered scaling rule for
// Lifecycle.Autoscale: comma-separated key=value fields with keys
// i/interval (the check cadence, which the run requires to be
// positive), up, down, min and max, e.g. "i=0.5,up=0.9,down=0.1".
// Omitted fields default to up=1, down=0.1, min=1 and no max. The empty
// string is no rule (nil).
func ParseAutoscale(s string) (*Autoscale, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	as := &Autoscale{Up: 1, Down: 0.1, Min: 1}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("cluster: autoscale: malformed field %q (want key=value)", kv)
		}
		var err error
		switch key {
		case "i", "interval":
			as.Interval, err = parseFinite(val)
		case "up":
			as.Up, err = parseFinite(val)
		case "down":
			as.Down, err = parseFinite(val)
		case "min":
			as.Min, err = strconv.Atoi(val)
		case "max":
			as.Max, err = strconv.Atoi(val)
		default:
			return nil, fmt.Errorf("cluster: autoscale: unknown field %q (want i, up, down, min or max)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: autoscale: bad %s value %q", key, val)
		}
	}
	return as, nil
}

// parseFinite is strconv.ParseFloat without the NaN and ±Inf it
// accepts: no schedule time or autoscale threshold means either.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%s is not finite", s)
	}
	return v, err
}
