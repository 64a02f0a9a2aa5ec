package repro.study

import repro.{SparkSpec, TestFixtures}
import repro.providers.Registry
import repro.spec.UseCaseSpec

class StudySpec extends SparkSpec {

  private lazy val harness =
    new StudyHarness(UseCaseSpec.default, Registry.standard, TestFixtures.ctx)

  /** The seed-42 cohort's results, run once for every test that reads them. */
  private lazy val cohort = Agents.generate(6, seed = 42).flatMap(harness.runAll)

  private def agent(searchFirst: Boolean = true, aware: Boolean = true,
                    careful: Boolean = true, findsConfig: Boolean = true, id: Int = 1) =
    AgentProfile(id, searchFirst, aware, careful, findsConfig)

  // ---- task 1 --------------------------------------------------------------

  test("task 1 succeeds via the search route") {
    val r = harness.task1(agent(searchFirst = true))
    assert(r.success && r.assists == 0 && r.route == "search-first")
  }
  test("task 1 succeeds via the views route") {
    val r = harness.task1(agent(searchFirst = false))
    assert(r.success && r.assists == 0 && r.route == "views-first")
  }
  test("task 1 routes differ in steps but both complete (§7.2)") {
    val a = harness.task1(agent(searchFirst = true))
    val b = harness.task1(agent(searchFirst = false))
    assert(a.success && b.success)
    assert(a.steps != b.steps)
  }

  // ---- task 2 --------------------------------------------------------------

  test("task 2 succeeds for an exploration-aware agent without assist") {
    val r = harness.task2(agent(aware = true))
    assert(r.success && r.assists == 0)
  }
  test("task 2 needs one reminder for unaware agents (§7.2)") {
    val r = harness.task2(agent(aware = false))
    assert(r.success && r.assists == 1)
  }

  // ---- task 3 --------------------------------------------------------------

  test("task 3 careful agent completes in one query") {
    val r = harness.task3(agent(careful = true))
    assert(r.success && r.assists == 0 && r.steps == 2)
  }
  test("task 3 careless agent misses the type condition then recovers (§7.2)") {
    val r = harness.task3(agent(careful = false))
    assert(r.success && r.assists == 1 && r.steps == 3)
  }

  // ---- task 4 --------------------------------------------------------------

  test("task 4 configures the team page successfully") {
    val r = harness.task4(agent(findsConfig = true))
    assert(r.success && r.assists == 0)
  }
  test("task 4 needs help when the setting is hard to find (§7.2)") {
    val r = harness.task4(agent(findsConfig = false))
    assert(r.success && r.assists == 1)
  }
  test("task 4 preferences vary by agent") {
    val r1 = harness.task4(agent(id = 1))
    val r2 = harness.task4(agent(id = 2))
    assert(r1.success && r2.success)
  }

  // ---- cohort --------------------------------------------------------------

  test("all simulated participants complete all four tasks (§7.2 headline)") {
    val results = cohort
    assert(results.size == 24)
    assert(results.forall(_.success), s"failures: ${results.filterNot(_.success)}")
  }

  test("agent generation is deterministic and varied") {
    val a = Agents.generate(6, seed = 42)
    val b = Agents.generate(6, seed = 42)
    assert(a == b)
    assert(a.map(_.searchFirst).distinct.size == 2) // both routes occur
  }

  // ---- baseline ------------------------------------------------------------

  test("keyword-only baseline completes task 1 only") {
    val a = agent()
    val outcomes = (1 to 4).map(t => harness.baselineTask(t, a).success)
    assert(outcomes == Seq(true, false, false, false))
  }

  // ---- likert --------------------------------------------------------------

  test("likert report covers the four categories with 12 statements") {
    val results = cohort
    val rep = Likert.score(results, seed = 42)
    assert(rep.perCategory.map(_.category) ==
      Seq("entry_points", "exploration_previews", "search", "customization"))
    assert(Likert.categories.flatMap(_.statements).size == 12)
  }

  test("likert ratings live on the 1..5 scale") {
    val agents = Agents.generate(6, seed = 1)
    val results = agents.flatMap(harness.runAll)
    val rep = Likert.score(results, seed = 1)
    rep.perCategory.foreach { c =>
      assert(c.mean >= 1.0 && c.mean <= 5.0)
      assert(c.std >= 0.0)
    }
    assert(rep.overallMean >= 1.0 && rep.overallMean <= 5.0)
  }

  test("likert scoring is deterministic in the seed") {
    val results = cohort
    assert(Likert.score(results, 42) == Likert.score(results, 42))
  }

  test("friction lowers ratings: assisted runs score below unassisted") {
    val smooth = Seq(TaskResult(3, 1, success = true, assists = 0, steps = 2, "query"))
    val rough  = Seq(TaskResult(3, 1, success = true, assists = 2, steps = 9, "query"))
    val s = Likert.score(smooth, 5).perCategory.find(_.category == "search").get.mean
    val r = Likert.score(rough, 5).perCategory.find(_.category == "search").get.mean
    assert(s > r)
  }

  test("paper constants are wired for the bench diff") {
    assert(Likert.paperCategoryStats.keySet ==
      Likert.categories.map(_.name).toSet)
    assert(Likert.paperOverall == (3.97, 0.85))
  }

  // ---- aggregates ----------------------------------------------------------

  test("taskStats aggregates per task") {
    val results = cohort
    val stats = SimulatedStudy.taskStats(results)
    assert(stats.map(_.task) == Seq(1, 2, 3, 4))
    stats.foreach { s =>
      assert(s.total == 6)
      assert(s.completed == 6)
      assert(s.meanSteps > 0)
    }
  }
}
