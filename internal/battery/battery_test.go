package battery

import (
	"reflect"
	"testing"
)

// TestDraw pins the battery's contract: case i has shape i mod Shapes, and
// one seed draws the same cases every time.
func TestDraw(t *testing.T) {
	cat := Catalog{Attributes: 50, Topics: 7}
	cases := Draw(3, 2*Shapes, cat)
	for i, c := range cases {
		if c.Shape != shapes[i%Shapes].name {
			t.Fatalf("case %d has shape %s, want %s", i, c.Shape, shapes[i%Shapes].name)
		}
	}
	if !reflect.DeepEqual(cases, Draw(3, 2*Shapes, cat)) {
		t.Fatal("one seed drew two batteries")
	}
	if specs := Specs(cases); len(specs) != len(cases) || !reflect.DeepEqual(specs[5], cases[5].Spec) {
		t.Fatal("Specs does not return the cases' specs in order")
	}
}
