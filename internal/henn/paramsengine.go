package henn

// ParamsOnlyEngine returns an Engine that implements only the five
// parameter accessors (Name, Slots, MaxLevel, Scale, QiFloat). That is
// everything Plan.Lower and the graph optimizer touch —
// lowering is symbolic — so callers that only need graph shapes (the
// hebench JSON report, the golden graph-size gate) can skip key
// generation entirely. Any evaluation method panics via the embedded
// nil Engine, which doubles as an assertion that lowering stayed
// symbolic.
func ParamsOnlyEngine(name string, slots, maxLevel int, scale float64, qi func(level int) float64) Engine {
	return &paramsOnlyEngine{name: name, slots: slots, maxLevel: maxLevel, scale: scale, qi: qi}
}

type paramsOnlyEngine struct {
	Engine   // nil: evaluation calls panic
	name     string
	slots    int
	maxLevel int
	scale    float64
	qi       func(int) float64
}

func (p *paramsOnlyEngine) Name() string              { return p.name }
func (p *paramsOnlyEngine) Slots() int                { return p.slots }
func (p *paramsOnlyEngine) MaxLevel() int             { return p.maxLevel }
func (p *paramsOnlyEngine) Scale() float64            { return p.scale }
func (p *paramsOnlyEngine) QiFloat(level int) float64 { return p.qi(level) }
