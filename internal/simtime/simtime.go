// Package simtime provides the discrete time model used throughout the
// GAIA simulator.
//
// Simulated time is an integer number of minutes since the start of the
// simulation. Carbon-intensity data is hourly, so one simulated year is
// 365 days of 24 hourly slots. Keeping time integral makes event ordering
// exact and window arithmetic (carbon integrals over job intervals)
// reproducible across platforms.
package simtime

import "fmt"

// Time is an instant, in minutes since the start of the simulation.
type Time int64

// Duration is a span of simulated time in minutes.
type Duration int64

// Common durations.
const (
	Minute Duration = 1
	Hour   Duration = 60 * Minute
	Day    Duration = 24 * Hour
	Week   Duration = 7 * Day
	Year   Duration = 365 * Day
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from o to t.
func (t Time) Sub(o Time) Duration { return Duration(t - o) }

// HourIndex returns the number of whole hours elapsed since the start of
// the simulation. It is the index into an hourly trace. Negative times
// floor toward negative infinity so that HourIndex is monotone.
func (t Time) HourIndex() int {
	if t >= 0 {
		return int(t / Time(Hour))
	}
	return int((t - Time(Hour) + 1) / Time(Hour))
}

// HourOfDay returns the hour-of-day in [0, 24).
func (t Time) HourOfDay() int {
	h := t.HourIndex() % 24
	if h < 0 {
		h += 24
	}
	return h
}

// MinuteOfHour returns the minute within the current hour in [0, 60).
func (t Time) MinuteOfHour() int {
	m := int64(t) % 60
	if m < 0 {
		m += 60
	}
	return int(m)
}

// DayIndex returns the number of whole days elapsed since the start of the
// simulation.
func (t Time) DayIndex() int {
	if t >= 0 {
		return int(t / Time(Day))
	}
	return int((t - Time(Day) + 1) / Time(Day))
}

// monthDays is the day count per month of the simulator's 365-day calendar
// (no leap years; simulations start on January 1st).
var monthDays = [12]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// monthStartDay[m] is the zero-based day-of-year on which month m begins.
var monthStartDay = func() [13]int {
	var s [13]int
	for m, d := range monthDays {
		s[m+1] = s[m] + d
	}
	return s
}()

// Month returns the zero-based month (0 = January .. 11 = December) of t
// within its simulated year.
func (t Time) Month() int {
	doy := t.DayIndex() % 365
	if doy < 0 {
		doy += 365
	}
	for m := 0; m < 12; m++ {
		if doy < monthStartDay[m+1] {
			return m
		}
	}
	return 11
}

// MonthInterval returns the [start, end) interval of the zero-based month m
// in the first simulated year. It panics if m is outside [0, 12).
func MonthInterval(m int) Interval {
	if m < 0 || m >= 12 {
		panic(fmt.Sprintf("simtime: month %d out of range", m))
	}
	return Interval{
		Start: Time(Duration(monthStartDay[m]) * Day),
		End:   Time(Duration(monthStartDay[m+1]) * Day),
	}
}

// String formats the time as d<days>h<hours>m<minutes>, e.g. "d12h07m30".
func (t Time) String() string {
	return fmt.Sprintf("d%02dh%02dm%02d", t.DayIndex(), t.HourOfDay(), t.MinuteOfHour())
}

// Hours returns the duration in (possibly fractional) hours.
func (d Duration) Hours() float64 { return float64(d) / float64(Hour) }

// Days returns the duration in (possibly fractional) days.
func (d Duration) Days() float64 { return float64(d) / float64(Day) }

// Minutes returns the duration as a minute count.
func (d Duration) Minutes() int64 { return int64(d) }

// String formats the duration compactly, e.g. "4h30m" or "15m".
func (d Duration) String() string {
	neg := ""
	if d < 0 {
		neg = "-"
		d = -d
	}
	h := d / Hour
	m := d % Hour
	switch {
	case h == 0:
		return fmt.Sprintf("%s%dm", neg, m)
	case m == 0:
		return fmt.Sprintf("%s%dh", neg, h)
	default:
		return fmt.Sprintf("%s%dh%dm", neg, h, m)
	}
}

// HoursDur converts fractional hours to a Duration, rounding to the
// nearest minute.
func HoursDur(h float64) Duration {
	if h < 0 {
		return -HoursDur(-h)
	}
	return Duration(h*60 + 0.5)
}

// Min returns the smaller of a and b.
func Min(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Interval is a half-open time span [Start, End).
type Interval struct {
	Start Time
	End   Time
}

// Len returns the interval's length. Empty or inverted intervals have
// length 0.
func (iv Interval) Len() Duration {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End.Sub(iv.Start)
}

// IsEmpty reports whether the interval contains no instants.
func (iv Interval) IsEmpty() bool { return iv.End <= iv.Start }

// Contains reports whether t lies within [Start, End).
func (iv Interval) Contains(t Time) bool { return t >= iv.Start && t < iv.End }

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	r := Interval{Start: MaxTime(iv.Start, o.Start), End: MinTime(iv.End, o.End)}
	if r.End < r.Start {
		r.End = r.Start
	}
	return r
}

// String formats the interval as "[start, end)".
func (iv Interval) String() string {
	return fmt.Sprintf("[%s, %s)", iv.Start, iv.End)
}
