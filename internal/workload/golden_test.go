package workload

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"github.com/carbonsched/gaia/internal/simtime"
)

// goldenSeedWorkload is the experiments package's seedWorkload: its
// demand-calibrated fixtures draw from it plus a per-family offset.
const goldenSeedWorkload = 4242

// goldenTraces generates every trace whose fingerprint
// TestGeneratedTraceGoldens pins, keyed by case name: each family by
// count and by demand at two seeds over week, 60-day and year horizons,
// the Section-3 Poisson spec over the same horizons, the experiment
// fixtures' inputs at quick and full scale, and two elastic traces.
func goldenTraces(t *testing.T) map[string][32]byte {
	out := map[string][32]byte{}
	families := []Family{AlibabaPAI(), AlibabaPAIWeek(), AzureVM(), MustangHPC()}
	horizons := []struct {
		name string
		d    simtime.Duration
	}{{"week", simtime.Week}, {"60d", 60 * simtime.Day}, {"year", simtime.Year}}
	for _, seed := range []int64{1, 2} {
		for _, h := range horizons {
			for _, f := range families {
				key := fmt.Sprintf("%s/%s/seed%d", f.Name, h.name, seed)
				out[key+"/count"] = f.GenerateByCount(rand.New(rand.NewSource(seed)), 2000, h.d).Fingerprint()
				out[key+"/demand"] = f.GenerateByDemand(rand.New(rand.NewSource(seed)), 4, h.d).Fingerprint()
			}
			key := fmt.Sprintf("poisson/%s/seed%d", h.name, seed)
			out[key] = SectionThreeWorkload().Generate(rand.New(rand.NewSource(seed)), h.d).Fingerprint()
		}
	}

	// The experiment fixtures: each family's demand-calibrated trace at
	// quick scale (60 days, a quarter of the paper's mean demand) and at
	// full scale (a year at the paper's demand), and the prototype week.
	fixtures := []struct {
		f      Family
		off    int64
		demand float64
	}{{MustangHPC(), 1, 468}, {AlibabaPAI(), 2, 100}, {AzureVM(), 3, 142}}
	for _, fx := range fixtures {
		rng := rand.New(rand.NewSource(goldenSeedWorkload + fx.off))
		out["fixture/"+fx.f.Name+"/quick"] = fx.f.GenerateByDemand(rng, fx.demand/4, 60*simtime.Day).Fingerprint()
		rng = rand.New(rand.NewSource(goldenSeedWorkload + fx.off))
		out["fixture/"+fx.f.Name+"/full"] = fx.f.GenerateByDemand(rng, fx.demand, simtime.Year).Fingerprint()
	}
	out["fixture/prototype-week"] = AlibabaPAIWeek().GenerateByCount(
		rand.New(rand.NewSource(goldenSeedWorkload+10)), 1000, simtime.Week).Fingerprint()

	_, et := fingerprintFixtures(t)
	out["elastic/amdahl"] = et.Fingerprint()
	out["elastic/mixed-reversed"] = goldenElasticMix().Fingerprint()
	return out
}

// goldenElasticMix is an elastic trace built from jobs listed in reverse
// arrival order, with a mix of rigid, scalable and preemptible specs and
// a few precedence edges, so its fingerprint covers the renumbering of
// specs and edge endpoints as well as every spec field.
func goldenElasticMix() *ElasticTrace {
	tr := AzureVM().GenerateByCount(rand.New(rand.NewSource(5)), 300, 10*simtime.Day)
	n := tr.Len()
	jobs := make([]Job, n)
	specs := make([]ElasticSpec, n)
	rng := rand.New(rand.NewSource(6))
	for i := range jobs {
		jobs[i] = tr.Jobs[n-1-i]
		switch i % 3 {
		case 0:
			specs[i] = DegenerateSpec()
		case 1:
			max := 2 + rng.Intn(6)
			specs[i] = ElasticSpec{MinReplicas: 1, MaxReplicas: max, Curve: AmdahlCurve(0.5+0.45*rng.Float64(), max)}
		default:
			specs[i] = ElasticSpec{MinReplicas: 0, MaxReplicas: 2, Curve: ScaleCurve{1, 0.75}}
		}
	}
	// Positions in the reversed list: a later arrival is a smaller
	// position, so every edge runs from a larger position to a smaller one.
	edges := []Edge{{Src: 20, Dst: 10}, {Src: 20, Dst: 5}, {Src: 10, Dst: 1}, {Src: 5, Dst: 1}, {Src: 200, Dst: 150}}
	return MustElasticTrace("mixed", jobs, specs, edges)
}

// TestGeneratedTraceGoldens pins the fingerprint of every generated
// trace family, so a change to the generators, to trace normalization or
// to the fingerprint encoding that moves any job, user or byte shows here
// by name. The values are the generators' output from before their
// per-draw constants were hoisted and normalization took the radix
// order, which had to leave every trace byte-identical. A new value is a
// new trace: it moves every figure and cache key built on it.
func TestGeneratedTraceGoldens(t *testing.T) {
	want := map[string]string{
		"alibaba-week/60d/seed1/count":   "094572afd0ac3d5938a4bc50215803e98b03bfbc53a43d222de04e78c01716f9",
		"alibaba-week/60d/seed1/demand":  "79a283dc768d79d9d26ff0ab40e15343850032c9820ed7fcef73990c692433e3",
		"alibaba-week/60d/seed2/count":   "6b4d3fe71aa0dff313c14f2852013f7cd7ec03fd722225cd13ea95d9141b30f9",
		"alibaba-week/60d/seed2/demand":  "fafe7fbf1ddf5700578b31f75a82633f50760798a65b3c64726c28fbe0aeaea4",
		"alibaba-week/week/seed1/count":  "603a5ba35b8aa2d9e90799a72a90202e8ee17a458abf49792d97cf6d8edef8e1",
		"alibaba-week/week/seed1/demand": "74275a0944d08c38a4bec59fe000f3626a4962813c23be53efed11520a644d19",
		"alibaba-week/week/seed2/count":  "65db501434e93495ae081c077f7945e56d17e4045ca986add698d1a68409c92c",
		"alibaba-week/week/seed2/demand": "0eefbfeb7670eae5a533a31288fa6c0e4cd22d09575ee022667d71e2a84761e9",
		"alibaba-week/year/seed1/count":  "81df0bb78f5ecf175b838167b3ffc62bd502c92db72209aac65d4ecaa6a01aa3",
		"alibaba-week/year/seed1/demand": "6c7449b4a4c47e7fc50764da260d94704b54126f11c8a9d236d4a625052245b8",
		"alibaba-week/year/seed2/count":  "d4babfcf73e50c7d4480a8d0fab44452e208ab60a5f55b37f65cb9482936fd59",
		"alibaba-week/year/seed2/demand": "047603d141e3d51ca2b7dad79603659b5a62884edb442b17a96989529c3a52e2",
		"alibaba/60d/seed1/count":        "9668e56e067f811b6e309af3dfbf100a33dbe5584539429da747c20440beeda6",
		"alibaba/60d/seed1/demand":       "ea77dadb27250bcd506309bbd4037262a27b17b07c0e2e8bb96faf931d00052f",
		"alibaba/60d/seed2/count":        "d36b818d381d1d73f9ed8454767a6e4512980968cfe540347e1933058c27427a",
		"alibaba/60d/seed2/demand":       "283ef8a4b873e9b1d1a5d783f485905a9e3e4d9837cc4323783cc14793157eeb",
		"alibaba/week/seed1/count":       "dae308e805e1acd19df539ef46ad0ff40689f636e4d7a3975c8fa743d6d0f33f",
		"alibaba/week/seed1/demand":      "8b21e9753bb44d990fcb7be17ec21f4a915d6b7b2119e5a562b03765165be51a",
		"alibaba/week/seed2/count":       "e02635a38761f62dad655c3fa3d87af26f9bd05bafaf14845b42fff260f2efcd",
		"alibaba/week/seed2/demand":      "a4bc518d39f215b2ea6234851aed219cb80243cddcd6e7e1d782792485d5a4fb",
		"alibaba/year/seed1/count":       "9abe17d40ba84dc3047e1839f6610532627dbea82165a6237869bb7b11b7863a",
		"alibaba/year/seed1/demand":      "543e368d83ba8236f93b4939804145031b9cf5544b952be6292a502f120d75ba",
		"alibaba/year/seed2/count":       "ad400ab0b318dc9d5383e8e891e2a003767ec4346a66db64373c3f101c9da7c5",
		"alibaba/year/seed2/demand":      "007235af6cd21faf632dd898a5b12e725dda196d747cb652e43cebc7e5e798c2",
		"azure/60d/seed1/count":          "a149b1117d9a6589a764be33dc341726570aae3c4768db746f04e486306e4b4a",
		"azure/60d/seed1/demand":         "6e3953875b3390201bbca5a6027091dbaa6d6d2b1596a2cd2017dd55e9934f5a",
		"azure/60d/seed2/count":          "d590defef5558ab2cdf2bde6f7a880768687e2c2d38cf8b64416dbc6cb86eff1",
		"azure/60d/seed2/demand":         "e2db80582ee0d3fa51fd93381fd5befbdf0822f555dd1d58af59995f4a9367d9",
		"azure/week/seed1/count":         "e911f078a44484e3025b5942d2b3b8d3cca9c710ab267838f9a7b296fb9eef4b",
		"azure/week/seed1/demand":        "1a073860f7e28552969402b305bd40dccb1084e77d93890ae4ebd93035028987",
		"azure/week/seed2/count":         "3f51943097c3ec07054041c01a8f2119a771d1627221ecd1a47786845fa45f62",
		"azure/week/seed2/demand":        "d6c2efef1efc2a6df35564d4ac3c2753b4883a248919f11b6fa9d471f530267e",
		"azure/year/seed1/count":         "8badf48bf6ba38a008dfa0fea5486421dd119062a931019fd8d53745149df2e3",
		"azure/year/seed1/demand":        "605cd5a41e63a6e82cd7c7e8ada001841cb949068033823577e7971b3c435e70",
		"azure/year/seed2/count":         "d50d420291515c75e97c450f3b258228a317f9f14e459dc78a531b68ab4082a9",
		"azure/year/seed2/demand":        "e4044635a44af2f8c1841975f889f03cbe606cb77a3c2e11b88ae4c194da07e5",
		"elastic/amdahl":                 "d00fb8c71e26ce95607b8d25b9ee5871d98bd18fae1465e0dcefd2a962070e8c",
		"elastic/mixed-reversed":         "382d4fa6c23efba70a0568873c5c3226e6ef0b4f600e2d716cc6ca1a02268173",
		"fixture/alibaba/full":           "66983f78e4f8f1cc9c173b23fc612ea0d2d6d3dae3c3cee4928c19ad0d092c79",
		"fixture/alibaba/quick":          "aef59324080957d45e4bd27481869909d8c44637d7f47ebe43755a636fa89349",
		"fixture/azure/full":             "21143baf427e71a08b631f7e0e34da33a0a06d7a1509481e0c7ffd45886df9f8",
		"fixture/azure/quick":            "f05e4258b948b349ac5225a0fe5ced12faddec80c8bed416dba5366a544c9f5a",
		"fixture/mustang/full":           "d4a89b45f9d562d5b5cdcf499d839a32605eff4dbc250331fb3661724052a90a",
		"fixture/mustang/quick":          "206a2590acdc9b61149c4f0de3b64312a789e3b103cb55a8cb64e4d15da059f8",
		"fixture/prototype-week":         "c1f5a06bcf8b4dd1b69bfb057291a74829b46ddbcab2870922408953173d6afc",
		"mustang/60d/seed1/count":        "3b4ab8194298bfc28865d276f4753ba0e4772259c1dd1ce9fe151622d15978b3",
		"mustang/60d/seed1/demand":       "be89e90e8c083464887193953e6ec6ff92e70177b6e426a79964b7e1212e231f",
		"mustang/60d/seed2/count":        "34a5f82d6e8d72fa457bcab3236c1dd2c1ae77ef31a0206a97005bd0dfd59f00",
		"mustang/60d/seed2/demand":       "d3d198a2829f2ea6d7758fd2d3147b887cb2d93b49175cc992c38323d973f244",
		"mustang/week/seed1/count":       "bc3cb7351a56c3fa91b879e3d2dc0f7b8e6d0151ef8a1d4874f643ba85280d25",
		"mustang/week/seed1/demand":      "8dbd38914737c6f49968b724075df558d8e069eb93e542caf6c9d298c8ff2264",
		"mustang/week/seed2/count":       "814b84acc8bda21e5422e421e37a25b057f5cdccf300c14743266acd22c0ab3a",
		"mustang/week/seed2/demand":      "2556ac519499e79db444f7baf3ea413c4a6a0f57ec2e7bd54a9529dda24e2933",
		"mustang/year/seed1/count":       "5123ed75968ff8256b30927268559c56bf22e73c15d75b62230c38a9cfe413ed",
		"mustang/year/seed1/demand":      "df321d76940735496536175d02c743c779a53c2802a3d971bb18f4b6dfc8f7e4",
		"mustang/year/seed2/count":       "5369bc963e988dd99fe9e499d485fe42ef5d2f8ddea0abdb0a31494d8e3e84c3",
		"mustang/year/seed2/demand":      "a475cf5cede7c120290e2ced4be5453a6f91f11b01c1f44bd137eda70060fbeb",
		"poisson/60d/seed1":              "ce088ec323557a99cf40a1ea89fe6594f80a7f94d40cabe9d1663d3bfe5ad4bd",
		"poisson/60d/seed2":              "c7bd6b2ab468788330d1a77a7df70dbbe4cd3c9cf7632d339ca03523400a111e",
		"poisson/week/seed1":             "90644b86446e22aa72920183159105afdd08f21e7c906f3217bf195d5aee5b82",
		"poisson/week/seed2":             "3f07ef1c97b522b3dae2c3ccf15f93045fb180d78b759ea39632d269b00272f9",
		"poisson/year/seed1":             "59d5a2121c798635eab4d9aa45bb78fb75a8f578cc1959b3ad62f910764d4308",
		"poisson/year/seed2":             "b10470af4cc6eb5af06a83c408ba2d4fa94e2dd363539d66e4ccfbf3a39bb453",
	}
	got := goldenTraces(t)
	for name, fp := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden (got %x)", name, fp)
			continue
		}
		if hex.EncodeToString(fp[:]) != w {
			t.Errorf("%s: fingerprint %x, want %s", name, fp, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden has no case", name)
		}
	}
}
