package core

import (
	"fmt"

	"repro/internal/population"
	"repro/internal/targeting"
)

// Four-fifths rule thresholds for disparate impact (paper §3): a
// representation ratio above High over-represents the sensitive population,
// below Low under-represents it.
const (
	FourFifthsLow  = 0.8
	FourFifthsHigh = 1.25
)

// OutsideFourFifths reports whether a rep ratio violates the four-fifths
// bounds.
func OutsideFourFifths(r float64) bool {
	return r < FourFifthsLow || r > FourFifthsHigh
}

// Class identifies a sensitive population: the users holding one value of a
// sensitive attribute (a gender, or an age range), or the complement of such
// a set (e.g. "not 18-24", the populations the paper's exclusion analyses
// use).
type Class struct {
	// IsAge selects the age attribute; otherwise gender.
	IsAge  bool
	Gender population.Gender
	Age    population.AgeRange
	// Excluded marks the complement population ¬s. Its representation ratio
	// is the reciprocal of the base class's, and its recall counts the users
	// outside s.
	Excluded bool
}

// GenderClass returns the class of users with gender g.
func GenderClass(g population.Gender) Class { return Class{Gender: g} }

// AgeClass returns the class of users in age range a.
func AgeClass(a population.AgeRange) Class { return Class{IsAge: true, Age: a} }

// Not returns the complement class.
func (c Class) Not() Class {
	c.Excluded = !c.Excluded
	return c
}

// String names the class as the paper's figures do ("male", "18-24",
// "not 55+").
func (c Class) String() string {
	var base string
	if c.IsAge {
		base = c.Age.String()
	} else {
		base = c.Gender.String()
	}
	if c.Excluded {
		return "not " + base
	}
	return base
}

// baseClause returns the targeting clause selecting the base value s.
func (c Class) baseClause() targeting.Clause {
	if c.IsAge {
		return targeting.Clause{{Kind: targeting.KindAge, ID: int(c.Age)}}
	}
	return targeting.Clause{{Kind: targeting.KindGender, ID: int(c.Gender)}}
}

// otherClauses returns one clause per other value of the sensitive
// attribute (the populations summed to form RA¬s in Equation 1).
func (c Class) otherClauses() []targeting.Clause {
	if !c.IsAge {
		return []targeting.Clause{{{Kind: targeting.KindGender, ID: int(c.Gender.Other())}}}
	}
	var out []targeting.Clause
	for _, a := range population.AllAgeRanges() {
		if a != c.Age {
			out = append(out, targeting.Clause{{Kind: targeting.KindAge, ID: int(a)}})
		}
	}
	return out
}

// StandardClasses returns the sensitive populations the paper reports on:
// both genders and all four age ranges.
func StandardClasses() []Class {
	out := []Class{GenderClass(population.Male), GenderClass(population.Female)}
	for _, a := range population.AllAgeRanges() {
		out = append(out, AgeClass(a))
	}
	return out
}

// Table1Classes returns the favoured populations of the paper's Table 1:
// male, female, "age not 18-24", and "age not 55+".
func Table1Classes() []Class {
	return []Class{
		GenderClass(population.Male),
		GenderClass(population.Female),
		AgeClass(population.Age18to24).Not(),
		AgeClass(population.Age55Plus).Not(),
	}
}

// validateClass panics on an impossible class value; Class is constructed
// by this package's helpers so this is purely defensive.
func validateClass(c Class) error {
	if !c.IsAge && c.Gender >= population.NumGenders {
		return fmt.Errorf("core: invalid gender %d", c.Gender)
	}
	if c.IsAge && c.Age >= population.NumAgeRanges {
		return fmt.Errorf("core: invalid age range %d", c.Age)
	}
	return nil
}
