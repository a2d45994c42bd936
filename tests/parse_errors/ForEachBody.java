class ForEachBody {
  private int y;

  public void sum(java.util.List<Integer> xs) {
    for (int x : xs) {
      y = ;
    }
  }
}
